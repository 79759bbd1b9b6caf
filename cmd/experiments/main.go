// Command experiments is the one report command. It prints the measured
// data behind the README's strategy guidance as one markdown report: the
// paper's worked examples (E3/E7), Table I (E1/E2), the sweeps (E8/E9/E10),
// the delete-vs-replace frontier (E11), fidelity tracking (E6), noisy
// fidelity (E12), the approximability atlas behind strategy=auto (E13),
// Shor at 50% fidelity (E5) and the DD memory-system statistics.
//
// Usage:
//
//	experiments                  # small scale (seconds)
//	experiments -scale medium    # ~10 min
//	experiments -parallel 0      # one simulation worker per CPU
//	experiments -seed 42         # pin per-job measurement seeds
//	experiments -golden update   # rewrite the committed goldens (make atlas)
//	experiments -golden check    # fail naming each stale golden (make atlas-check)
//
// The report header carries the resolved worker count and seed. Golden
// mode runs, at small scale, only what is a pure function of the code:
// docs/REPORT.md (the golden sections below, Table I without its timing
// columns), docs/ATLAS.md and internal/atlas/winners_gen.go. It also writes
// BENCH_atlas.json, the gitignored atlas sweep with wall times.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

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
	parallel := flag.Int("parallel", 1, "simulation workers for Table I, the sweeps and the atlas (0 = one per CPU)")
	seed := flag.Int64("seed", 0, "base seed for per-job measurement seeds")
	golden := flag.String("golden", "", "check or update the committed goldens instead of printing the report")
	flag.Parse()
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	env := env{scale: *scale, opts: benchtab.RunOptions{Parallel: *parallel, BaseSeed: *seed}}

	if *golden != "" {
		if err := runGolden(*golden, env); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	// The header carries the resolved worker count and seed so every number
	// in a published report is reproducible from the report itself.
	fmt.Printf("# Experiment report (%s scale, workers=%d, seed=%d)\n\n", env.scale, env.opts.Parallel, env.opts.BaseSeed)
	for _, s := range sections {
		fmt.Printf("## %s\n\n", s.title)
		if err := s.run(os.Stdout, env); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", s.title, err)
			fmt.Printf("FAILED: %v\n", err)
		}
		fmt.Println()
	}
}

// env is what every section runs under.
type env struct {
	scale string
	opts  benchtab.RunOptions
	// golden asks for the section's deterministic rendering: Table I drops
	// its timing columns.
	golden bool
}

// A section is one experiment of the report. Golden sections are pure
// functions of the code at small scale; golden mode commits them as
// docs/REPORT.md.
type section struct {
	title  string
	golden bool
	run    func(w io.Writer, e env) error
}

var sections = []section{
	{"E3/E7 — paper figures and worked examples", true, paperExamples},
	{"E1/E2 — Table I", true, table1},
	{"E8 — memory-driven threshold sweep", false, thresholdSweep},
	{"E10 — variable-ordering sweep (nodes saved per ordering)", false, orderingSweep},
	{"E9 — fidelity-driven round tradeoff", false, roundTradeoff},
	{"E11 — delete-vs-replace fidelity/size frontier", true, replaceFrontier},
	{"E6 — fidelity tracking validation", true, fidelityTracking},
	{"E12 — noisy fidelity: density backend vs quantum trajectories", true, noisyFidelity},
	{"E13 — approximability atlas (per-class strategy × ordering winners)", false, atlasWinners},
	{"E5 — Shor at 50% fidelity", false, shorHalfFidelity},
	{"DD memory system — per-cache and pool statistics", false, memorySystemStats},
}

func paperExamples(w io.Writer, _ env) error {
	m := dd.New()
	s := 1 / math.Sqrt(10)
	fig1, err := m.FromAmplitudes([]complex128{
		complex(s, 0), 0, 0, complex(-s, 0),
		0, complex(2*s, 0), 0, complex(2*s, 0),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 1b DD: %d nodes (maximally shared; paper draws 6)\n", dd.CountVNodes(fig1))
	fmt.Fprintf(w, "Example 4:  amplitude(|011⟩) = %v (paper: −1/√10 = %.6f)\n",
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
	fmt.Fprintln(w, "Example 7:  contributions per node:")
	for _, c := range contribs {
		fmt.Fprintf(w, "  q%d: %.3f\n", c.v, c.c)
	}
	approx, rep, err := core.ApproximateToFidelity(m, fig1, 0.7)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Example 8:  removal with 0.3 budget → %d nodes, fidelity %.3f (paper: Fig. 1d at 0.8)\n",
		dd.CountVNodes(approx), rep.Achieved)

	psi, _ := m.FromAmplitudes([]complex128{0.5, 0.5, 0.5, 0.5})
	s2 := complex(1/math.Sqrt2, 0)
	phi, _ := m.FromAmplitudes([]complex128{s2, 0, 0, s2})
	fmt.Fprintf(w, "Example 5:  F = %.3f (paper: 0.5)\n", m.Fidelity(psi, phi))
	return nil
}

// table1 prints both halves of Table I: as markdown with wall times in the
// report, as CSV without its timing columns in the golden.
func table1(w io.Writer, e env) error {
	suite, err := benchtab.NewSuite(e.scale)
	if err != nil {
		return err
	}
	ctx := context.Background()
	mem, err := suite.RunMemoryDriven(ctx, e.opts)
	if err != nil {
		return err
	}
	fid, err := suite.RunFidelityDriven(ctx, e.opts)
	if err != nil {
		return err
	}
	rows := append(mem, fid...)
	if !e.golden {
		fmt.Fprint(w, benchtab.FormatMarkdown(rows))
		return nil
	}
	csv, err := dropColumns(benchtab.FormatCSV(rows), timingColumns)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Wall-clock columns (%s) omitted.\n\n```csv\n%s```\n", strings.Join(timingColumns, ", "), csv)
	return nil
}

func thresholdSweep(w io.Writer, e env) error {
	cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 16, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		return err
	}
	points, err := benchtab.SweepThreshold(context.Background(), c,
		[]int{256, 512, 1024, 2048, 4096}, 0.975, 1.05, e.opts)
	if err != nil {
		return err
	}
	fmt.Fprint(w, benchtab.FormatSweepMarkdown(points))
	return nil
}

func orderingSweep(w io.Writer, e env) error {
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
		[]string{order.Reversed, order.Scored}, true, e.opts)
	if err != nil {
		return err
	}
	fmt.Fprint(w, benchtab.FormatOrderMarkdown(points))
	return nil
}

func roundTradeoff(w io.Writer, e env) error {
	inst, err := shor.NewInstance(33, 5)
	if err != nil {
		return err
	}
	points, err := benchtab.SweepRoundFidelity(context.Background(), inst,
		[]float64{0.51, 0.71, 0.8, 0.9, 0.95, 0.99}, 0.5, e.opts)
	if err != nil {
		return err
	}
	fmt.Fprint(w, benchtab.FormatSweepMarkdown(points))
	return nil
}

func replaceFrontier(w io.Writer, e env) error {
	circs, err := benchtab.FrontierCircuits()
	if err != nil {
		return err
	}
	points, err := benchtab.SweepFrontier(context.Background(), circs,
		[]int{16, 24, 32, 48, 64}, nil, e.opts)
	if err != nil {
		return err
	}
	fmt.Fprint(w, benchtab.FormatFrontierMarkdown(points))
	return nil
}

func atlasWinners(w io.Writer, e env) error {
	a, err := benchtab.SweepAtlas(context.Background(), e.opts)
	if err != nil {
		return err
	}
	fmt.Fprint(w, benchtab.FormatAtlasMarkdown(a))
	fmt.Fprintf(w, "\nFull grid: %s (regenerate with `make atlas`; serving's strategy=auto resolves from this table).\n", atlasPath)
	return nil
}

func fidelityTracking(w io.Writer, _ env) error {
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
	fmt.Fprintf(w, "rounds: %d, tracked fidelity: %.6f, true fidelity: %.6f, |error|: %.2e, bound: %.6f\n",
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
func noisyFidelity(w io.Writer, _ env) error {
	c := gen.QFT(6)
	const trajectories = 96
	fmt.Fprintf(w, "workload: %s, %d trajectories per estimate\n\n", c.Name, trajectories)
	fmt.Fprintln(w, "| channel | p | density fidelity | purity | trajectory mean | |Δ| |")
	fmt.Fprintln(w, "|---------|--:|-----------------:|-------:|----------------:|----:|")
	for _, kind := range []density.Kind{density.Depolarizing, density.AmplitudeDamping} {
		for _, p := range []float64{0.005, 0.02, 0.05} {
			noise := sim.NoiseModel{Kind: kind, P: p, Seed: 1}

			ideal, err := sim.Run(c, sim.Options{})
			if err != nil {
				return err
			}
			den, err := sim.Run(c, sim.Options{Backend: sim.BackendDensity, Noise: &noise})
			if err != nil {
				return err
			}
			// The ideal state moves into the density run's manager through
			// its amplitudes (2^6 of them).
			psi, err := den.Manager.FromAmplitudes(ideal.Manager.ToVector(ideal.Final, c.NumQubits))
			if err != nil {
				return err
			}
			exact := den.Density.FidelityPure(psi)

			est, err := sim.TrajectoryFidelity(c, noise, trajectories)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "| %s | %g | %.6f | %.6f | %.6f | %.4f |\n",
				kind, p, exact, den.Purity, est, math.Abs(est-exact))
		}
	}
	return nil
}

func shorHalfFidelity(w io.Writer, _ env) error {
	inst, err := shor.NewInstance(33, 5)
	if err != nil {
		return err
	}
	out, err := inst.Run(shor.RunOptions{FinalFidelity: 0.5, RoundFidelity: 0.9, Shots: 128, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s at f_final=0.5: factors %d × %d, hit rate %.1f%%, max DD %d, runtime %v\n",
		inst.Name(), out.Factors.Factor1, out.Factors.Factor2,
		100*out.Factors.SuccessRate(), out.Sim.MaxDDSize, out.Sim.Runtime)
	if !out.Factors.Success {
		return fmt.Errorf("factoring failed")
	}
	return nil
}

// memorySystemStats runs the E8 supremacy circuit memory-driven and reports
// the run's own DD memory-system counters: per-cache hits, misses and
// evictions, node-pool traffic, and weight-table pressure.
func memorySystemStats(w io.Writer, _ env) error {
	cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 16, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		return err
	}
	res, err := sim.Run(c, sim.Options{
		Strategy: &core.MemoryDriven{Threshold: 1 << 10, RoundFidelity: 0.975, Growth: 1.05},
	})
	if err != nil {
		return err
	}
	st := res.DDStats
	fmt.Fprintf(w, "workload: %s memory-driven\n\n", cfg.Name())
	fmt.Fprintln(w, "| cache | hits | misses | evictions | hit ratio |")
	fmt.Fprintln(w, "|-------|-----:|-------:|----------:|----------:|")
	for _, row := range []struct {
		name string
		cs   dd.CacheStats
	}{
		{"add", st.Add}, {"madd", st.MAdd}, {"mul", st.Mul}, {"mm", st.MM}, {"ip", st.IP},
	} {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %.3f |\n",
			row.name, row.cs.Hits, row.cs.Misses, row.cs.Evictions, row.cs.HitRatio())
	}
	pool := res.Manager.Pool()
	fmt.Fprintf(w, "\nnodes: %d vector + %d matrix created, %d recycled from pools; unique tables %d+%d live; pool %d live / %d free / %d capacity; %d cleanups\n",
		st.VNodesCreated, st.MNodesCreated, st.VNodesRecycled+st.MNodesRecycled,
		st.VUniqueSize, st.MUniqueSize, pool.Live, pool.Free, pool.Capacity, st.Cleanups)
	wt := res.WeightTable
	fmt.Fprintf(w, "weight table: %d interned values (peak %d), %d lookups this run, hit ratio %.4f\n",
		st.ComplexValues, wt.Peak, wt.Lookups, wt.HitRatio())
	return nil
}
