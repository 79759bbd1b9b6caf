// Command experiments regenerates the measured data behind the README's
// strategy guidance as one markdown report on stdout: Table I (both halves)
// at the chosen scale, the hyper-parameter sweeps (E8/E9), the paper's
// worked examples (E3/E7), the Lemma 1 / fidelity tracking validation (E6),
// the noisy-fidelity comparison of the density-matrix backend against
// quantum-trajectory sampling (E12), and the approximability-atlas winner
// table behind serving's strategy=auto (E13).
//
// Usage:
//
//	experiments                # small scale (~1 min)
//	experiments -scale medium  # ~10 min
//	experiments -parallel 0    # fan simulations out across all CPUs
//	experiments -verbose       # append DD memory-system stats (per-cache
//	                           # hits/misses/evictions, pool and weight-table
//	                           # pressure) from a representative run
//	experiments -seed 42       # pin per-job measurement seeds
//
// The report header carries the resolved worker count and seed, so every
// published number is reproducible from the report itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/benchtab"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/density"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/shor"
	"repro/internal/sim"
	"repro/internal/supremacy"
)

func main() {
	scale := flag.String("scale", benchtab.PresetSmall, "preset: small, medium, or paper")
	parallel := flag.Int("parallel", 1, "simulation workers for Table I and the sweeps (0 = one per CPU)")
	verbose := flag.Bool("verbose", false, "append DD memory-system statistics (per-cache hits/misses/evictions, node pool, weight table)")
	seed := flag.Int64("seed", 0, "base seed for per-job measurement seeds")
	flag.Parse()
	workers := benchtab.Workers(*parallel)
	runOpts := benchtab.RunOptions{Parallel: workers, BaseSeed: *seed}

	// The header carries the resolved worker count and seed so every number
	// in a published report is reproducible from the report itself.
	fmt.Printf("# Experiment report (%s scale, workers=%d, seed=%d)\n\n", *scale, workers, *seed)

	report("E3/E7 — paper figures and worked examples", paperExamples)
	report("E1/E2 — Table I", func() error { return table1(*scale, runOpts) })
	report("E8 — memory-driven threshold sweep", func() error { return thresholdSweep(runOpts) })
	report("E10 — variable-ordering sweep (nodes saved per ordering)", func() error { return orderingSweep(runOpts) })
	report("E9 — fidelity-driven round tradeoff", func() error { return roundTradeoff(runOpts) })
	report("E11 — delete-vs-replace fidelity/size frontier", func() error { return replaceFrontier(runOpts) })
	report("E6 — fidelity tracking validation", fidelityTracking)
	report("E12 — noisy fidelity: density backend vs quantum trajectories", noisyFidelity)
	report("E13 — approximability atlas (per-class strategy × ordering winners)", func() error { return atlasWinners(runOpts) })
	report("E5 — Shor at 50% fidelity", shorHalfFidelity)
	if *verbose {
		report("DD memory system — per-cache and pool statistics", memorySystemStats)
	}
}

func report(title string, f func() error) {
	fmt.Printf("## %s\n\n", title)
	if err := f(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", title, err)
		fmt.Printf("FAILED: %v\n\n", err)
		return
	}
	fmt.Println()
}

func paperExamples() error {
	m := dd.New()
	s := 1 / math.Sqrt(10)
	fig1, err := m.FromAmplitudes([]complex128{
		complex(s, 0), 0, 0, complex(-s, 0),
		0, complex(2*s, 0), 0, complex(2*s, 0),
	})
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 1b DD: %d nodes (maximally shared; paper draws 6)\n", dd.CountVNodes(fig1))
	fmt.Printf("Example 4:  amplitude(|011⟩) = %v (paper: −1/√10 = %.6f)\n",
		m.Amplitude(fig1, 0b011, 3), -s)
	// Contributions is a map; print it sorted by variable, then value, so
	// the report is byte-stable.
	type contribution struct {
		v int
		c float64
	}
	var contribs []contribution
	for n, c := range core.Contributions(m, fig1) {
		contribs = append(contribs, contribution{int(n.Var), c})
	}
	sort.Slice(contribs, func(i, j int) bool {
		a, b := contribs[i], contribs[j]
		return a.v < b.v || a.v == b.v && a.c < b.c
	})
	fmt.Println("Example 7:  contributions per node:")
	for _, c := range contribs {
		fmt.Printf("  q%d: %.3f\n", c.v, c.c)
	}
	approx, rep, err := core.ApproximateToFidelity(m, fig1, 0.7)
	if err != nil {
		return err
	}
	fmt.Printf("Example 8:  removal with 0.3 budget → %d nodes, fidelity %.3f (paper: Fig. 1d at 0.8)\n",
		dd.CountVNodes(approx), rep.Achieved)

	psi, _ := m.FromAmplitudes([]complex128{0.5, 0.5, 0.5, 0.5})
	s2 := complex(1/math.Sqrt2, 0)
	phi, _ := m.FromAmplitudes([]complex128{s2, 0, 0, s2})
	fmt.Printf("Example 5:  F = %.3f (paper: 0.5)\n", m.Fidelity(psi, phi))
	return nil
}

func table1(scale string, opts benchtab.RunOptions) error {
	suite, err := benchtab.NewSuite(scale)
	if err != nil {
		return err
	}
	ctx := context.Background()
	mem, err := suite.RunMemoryDriven(ctx, opts)
	if err != nil {
		return err
	}
	fid, err := suite.RunFidelityDriven(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Print(benchtab.FormatMarkdown(append(mem, fid...)))
	return nil
}

func thresholdSweep(opts benchtab.RunOptions) error {
	cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 16, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		return err
	}
	points, err := benchtab.SweepThreshold(context.Background(), c,
		[]int{256, 512, 1024, 2048, 4096}, 0.975, 1.05, opts)
	if err != nil {
		return err
	}
	fmt.Print(benchtab.FormatSweepMarkdown(points))
	return nil
}

func orderingSweep(opts benchtab.RunOptions) error {
	cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 12, Seed: 0}
	sup, err := cfg.Generate()
	if err != nil {
		return err
	}
	pairs := circuit.New(16, "pairs_16")
	for i := 0; i < 8; i++ {
		pairs.H(i)
		pairs.CX(i, i+8)
	}
	points, err := benchtab.SweepOrderings(context.Background(),
		[]*circuit.Circuit{pairs, gen.QFT(14), sup},
		[]string{order.Reversed, order.Scored}, true, opts)
	if err != nil {
		return err
	}
	fmt.Print(benchtab.FormatOrderMarkdown(points))
	return nil
}

func roundTradeoff(opts benchtab.RunOptions) error {
	inst, err := shor.NewInstance(33, 5)
	if err != nil {
		return err
	}
	points, err := benchtab.SweepRoundFidelity(context.Background(), inst,
		[]float64{0.51, 0.71, 0.8, 0.9, 0.95, 0.99}, 0.5, opts)
	if err != nil {
		return err
	}
	fmt.Print(benchtab.FormatSweepMarkdown(points))
	return nil
}

func replaceFrontier(opts benchtab.RunOptions) error {
	circs, err := benchtab.FrontierCircuits()
	if err != nil {
		return err
	}
	points, err := benchtab.SweepFrontier(context.Background(), circs,
		[]int{16, 24, 32, 48, 64}, nil, opts)
	if err != nil {
		return err
	}
	fmt.Print(benchtab.FormatFrontierMarkdown(points))
	return nil
}

func atlasWinners(opts benchtab.RunOptions) error {
	a, err := benchtab.SweepAtlas(context.Background(), opts)
	if err != nil {
		return err
	}
	fmt.Print(benchtab.FormatAtlasMarkdown(a))
	fmt.Println("\nFull grid: docs/ATLAS.md (regenerate with `make atlas`; serving's strategy=auto resolves from this table).")
	return nil
}

func fidelityTracking() error {
	cfg := supremacy.Config{Rows: 3, Cols: 3, Depth: 20, Seed: 1}
	c, err := cfg.Generate()
	if err != nil {
		return err
	}
	cmp, err := sim.RunAndCompare(c, sim.Options{
		Strategy: &core.MemoryDriven{Threshold: 64, RoundFidelity: 0.97, Growth: 1.1},
	})
	if err != nil {
		return err
	}
	fmt.Printf("rounds: %d, tracked fidelity: %.6f, true fidelity: %.6f, |error|: %.2e, bound: %.6f\n",
		len(cmp.Approx.Rounds), cmp.Approx.EstimatedFidelity, cmp.TrueFidelity,
		cmp.EstimateError, cmp.Approx.FidelityBound)
	if cmp.TrueFidelity < cmp.Approx.FidelityBound-1e-6 {
		return fmt.Errorf("bound violated")
	}
	return nil
}

// noisyFidelity sweeps noise strength on the QFT and reports, per channel
// kind, the exact fidelity ⟨ideal|ρ|ideal⟩ and purity from the density-matrix
// backend against the Monte-Carlo estimate from quantum-trajectory sampling —
// the experiment behind the backend's differential acceptance test.
func noisyFidelity() error {
	c := gen.QFT(6)
	const trajectories = 96
	fmt.Printf("workload: %s, %d trajectories per estimate\n\n", c.Name, trajectories)
	fmt.Println("| channel | p | density fidelity | purity | trajectory mean | |Δ| |")
	fmt.Println("|---------|--:|-----------------:|-------:|----------------:|----:|")
	for _, kind := range []density.Kind{density.Depolarizing, density.AmplitudeDamping} {
		for _, p := range []float64{0.005, 0.02, 0.05} {
			noise := sim.NoiseModel{Kind: kind, P: p, Seed: 1}

			s := sim.New()
			ideal, err := s.Run(c, sim.Options{})
			if err != nil {
				return err
			}
			den, err := s.Run(c, sim.Options{
				Backend:   sim.BackendDensity,
				Noise:     &noise,
				KeepAlive: []dd.VEdge{ideal.Final},
			})
			if err != nil {
				return err
			}
			exact := den.Density.FidelityPure(ideal.Final)

			est, err := sim.TrajectoryFidelity(c, noise, trajectories)
			if err != nil {
				return err
			}
			fmt.Printf("| %s | %g | %.6f | %.6f | %.6f | %.4f |\n",
				kind, p, exact, den.Purity, est, math.Abs(est-exact))
		}
	}
	return nil
}

// memorySystemStats runs the E8 supremacy circuit (exact, then memory-driven
// approximate) on one manager and reports the DD memory system's per-cache
// hit/miss/eviction counters, node-pool traffic, and weight-table pressure.
func memorySystemStats() error {
	cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 16, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		return err
	}
	s := sim.New()
	if _, err := s.Run(c, sim.Options{}); err != nil {
		return err
	}
	s.Recycle()
	res, err := s.Run(c, sim.Options{
		Strategy: &core.MemoryDriven{Threshold: 1 << 10, RoundFidelity: 0.975, Growth: 1.05},
	})
	if err != nil {
		return err
	}
	st := res.DDStats
	fmt.Printf("workload: %s exact + memory-driven on one manager (Recycle between runs)\n\n", cfg.Name())
	fmt.Println("| cache | hits | misses | evictions | hit ratio |")
	fmt.Println("|-------|-----:|-------:|----------:|----------:|")
	for _, row := range []struct {
		name string
		cs   dd.CacheStats
	}{
		{"add", st.Add}, {"madd", st.MAdd}, {"mul", st.Mul}, {"mm", st.MM}, {"ip", st.IP},
	} {
		fmt.Printf("| %s | %d | %d | %d | %.3f |\n",
			row.name, row.cs.Hits, row.cs.Misses, row.cs.Evictions, row.cs.HitRatio())
	}
	pool := res.Manager.Pool()
	fmt.Printf("\nnodes: %d vector + %d matrix created, %d recycled from pools; unique tables %d+%d live; pool %d live / %d free / %d capacity; %d cleanups\n",
		st.VNodesCreated, st.MNodesCreated, st.VNodesRecycled+st.MNodesRecycled,
		st.VUniqueSize, st.MUniqueSize, pool.Live, pool.Free, pool.Capacity, st.Cleanups)
	wt := res.WeightTable
	fmt.Printf("weight table: %d interned values (peak %d), %d lookups this run, hit ratio %.4f\n",
		st.ComplexValues, wt.Peak, wt.Lookups, wt.HitRatio())
	return nil
}

func shorHalfFidelity() error {
	inst, err := shor.NewInstance(33, 5)
	if err != nil {
		return err
	}
	out, err := inst.Run(shor.RunOptions{FinalFidelity: 0.5, RoundFidelity: 0.9, Shots: 128, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Printf("%s at f_final=0.5: factors %d × %d, hit rate %.1f%%, max DD %d, runtime %v\n",
		inst.Name(), out.Factors.Factor1, out.Factors.Factor2,
		100*out.Factors.SuccessRate(), out.Sim.MaxDDSize, out.Sim.Runtime)
	if !out.Factors.Success {
		return fmt.Errorf("factoring failed")
	}
	return nil
}
