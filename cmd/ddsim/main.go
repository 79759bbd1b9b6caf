// Command ddsim simulates a quantum circuit with optional approximation.
//
// The circuit comes from an OpenQASM 2.0 file (-qasm) or a builtin generator
// (-gen). -strategy takes any registered strategy name (exact, memory,
// fidelity, replace, reorder, ...) with its JSON parameters in -params, the
// same spelling as the simulation service's strategy and strategy_params
// fields; auto classifies the circuit's gate mix and installs the committed
// approximability-atlas winner for its workload class (docs/ATLAS.md).
//
// Examples:
//
//	ddsim -gen qft:12 -shots 8
//	ddsim -gen qaoa:10:2:1 -strategy auto
//	ddsim -gen grover:10:333 -strategy fidelity -params '{"final_fidelity":0.8,"round_fidelity":0.95}'
//	ddsim -qasm circuit.qasm -optimize -strategy memory -params '{"threshold":4096,"round_fidelity":0.99}'
//	ddsim -gen qsup:3x4:16 -strategy memory -params '{"threshold":1024,"round_fidelity":0.99,"growth":1.05}' -trace
//	ddsim -gen grover:8:3 -strategy replace -params '{"node_budget":16}'
//	ddsim -gen ghz:4 -dot out.dot
//	ddsim -gen qft:12 -strategy reorder -params '{"order":"scored","sift":true}'
//	ddsim -gen qft:6 -noise depolarizing -noise-param p=0.01 -shots 16
//	ddsim -gen ghz:5 -noise amplitude_damping -noise-param p=0.05 -backend statevector -trace
//
// reorder installs a static variable ordering (identity, reversed, scored)
// and, with "sift", dynamic reordering passes; "inner" and "inner_params"
// name the approximation strategy it wraps.
//
// -noise applies a per-qubit, per-gate noise channel (depolarizing,
// amplitude_damping, dephasing, bit_flip, phase_flip) parameterized by
// -noise-param key=value pairs (p, gamma, seed). Noisy runs default to the
// density backend, which applies the channel exactly as a superoperator;
// -backend statevector instead samples one Monte-Carlo trajectory.
//
// -trace streams per-gate node counts, approximation rounds, node-pool
// cleanups, and noise-channel applications live (via the simulator's
// observer hooks) instead of waiting for the run to finish.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/atlas"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/qasm"
	"repro/internal/sim"
)

func main() {
	qasmPath := flag.String("qasm", "", "OpenQASM 2.0 file to simulate")
	genSpec := flag.String("gen", "", "builtin generator: qft:N | iqft:N | ghz:N | w:N | grover:N[:marked] | bv:N[:secret] | random:N:GATES[:seed] | qsup:RxC:DEPTH[:seed] | qaoa:N[:P[:seed]] | vqe:N[:L[:topo[:seed]]] | cliffordt:N[:GATES[:TCOUNT[:seed]]]")
	strategy := flag.String("strategy", "exact", "registered strategy name ("+strings.Join(core.StrategyNames(), ", ")+") or auto")
	params := flag.String("params", "", "the strategy's JSON parameters, e.g. '{\"threshold\":4096,\"round_fidelity\":0.99}' for memory")
	shots := flag.Int("shots", 0, "samples to draw from the final state")
	seed := flag.Int64("seed", 1, "sampling seed")
	dotPath := flag.String("dot", "", "write the final state DD in Graphviz format")
	history := flag.Bool("history", false, "print the per-gate DD size history")
	trace := flag.Bool("trace", false, "stream per-gate node counts, approximation rounds, and cleanups as they happen")
	optimize := flag.Bool("optimize", false, "peephole-optimize the circuit before simulating")
	noiseKind := flag.String("noise", "", "noise channel: depolarizing, amplitude_damping, dephasing, bit_flip, phase_flip (empty = noiseless)")
	var noiseParams paramFlags
	flag.Var(&noiseParams, "noise-param", "noise parameter as key=value (p, gamma, seed); repeatable")
	backend := flag.String("backend", "", "state representation: statevector or density (empty = statevector, or density when -noise is set)")
	flag.Parse()

	// `ddsim circuit.qasm` is the documented spelling; the single positional
	// argument is the QASM file, and every flag above — including -noise,
	// -noise-param, and -backend — must come before it.
	switch flag.NArg() {
	case 0:
	case 1:
		if *qasmPath != "" {
			fatal(fmt.Errorf("both -qasm %s and positional %s given", *qasmPath, flag.Arg(0)))
		}
		*qasmPath = flag.Arg(0)
	default:
		fatal(fmt.Errorf("at most one positional argument (the QASM file; flags like -noise/-noise-param/-backend must precede it), got %v", flag.Args()))
	}

	circ, err := loadCircuit(*qasmPath, *genSpec)
	if err != nil {
		fatal(err)
	}
	if *optimize {
		var stats opt.Stats
		circ, stats = opt.Optimize(circ)
		fmt.Printf("optimized:  -%d pairs, %d merges, -%d identities (%d passes)\n",
			stats.CancelledPairs, stats.MergedGates, stats.DroppedGates, stats.Passes)
	}

	// Both -history and -trace observe the run through the Observer seam:
	// -trace prints live, -history collects sizes and prints at the end.
	var observers multiObserver
	var collected *sizeCollector
	if *history {
		collected = &sizeCollector{}
		observers = append(observers, collected)
	}
	if *trace {
		observers = append(observers, traceObserver{w: os.Stdout})
	}
	var opts sim.Options
	if len(observers) > 0 {
		opts.Observer = observers
	}
	st, auto, err := newStrategy(*strategy, *params, circ)
	if err != nil {
		fatal(err)
	}
	if auto != "" {
		fmt.Printf("auto:       %s\n", auto)
	}
	opts.Strategy = st
	opts.Backend = sim.Backend(*backend)
	if *noiseKind != "" {
		noise, err := sim.ParseNoise(*noiseKind, noiseParams.m)
		if err != nil {
			fatal(err)
		}
		opts.Noise = &noise
		if *backend == "" {
			opts.Backend = sim.BackendDensity // exact noisy simulation by default
		}
	} else if len(noiseParams.m) > 0 {
		fatal(fmt.Errorf("-noise-param given without -noise"))
	}

	s := sim.New()
	res, err := s.Run(circ, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("circuit:    %s\n", circ.String())
	fmt.Printf("strategy:   %s\n", res.StrategyName)
	if res.Backend != sim.BackendStatevector || res.Noise != nil {
		fmt.Printf("backend:    %s\n", res.Backend)
	}
	if res.Noise != nil {
		fmt.Printf("noise:      %s p=%g (%d channel applications)\n",
			res.Noise.Kind, res.Noise.P, res.ChannelApplications)
	}
	fmt.Printf("max DD:     %d nodes\n", res.MaxDDSize)
	fmt.Printf("final DD:   %d nodes\n", res.FinalDDSize)
	if res.Density != nil {
		fmt.Printf("purity:     %.6f\n", res.Purity)
	}
	fmt.Printf("runtime:    %v\n", res.Runtime)
	if res.InitialOrder != nil {
		fmt.Printf("order:      %v", res.FinalOrder)
		if res.SiftPasses > 0 {
			fmt.Printf(" (from %v via %d sift passes, %d swaps)", res.InitialOrder, res.SiftPasses, res.SiftSwaps)
		}
		fmt.Println()
	}
	if len(res.Rounds) > 0 {
		fmt.Printf("rounds:     %d\n", len(res.Rounds))
		fmt.Printf("fidelity:   %.6f (bound %.6f)\n", res.EstimatedFidelity, res.FidelityBound)
		for _, r := range res.Rounds {
			fmt.Printf("  after gate %4d: %6d -> %6d nodes, fidelity %.6f\n",
				r.GateIndex, r.Report.SizeBefore, r.Report.SizeAfter, r.Report.Achieved)
		}
	}
	if *history {
		fmt.Print("size history:")
		for i, sz := range collected.sizes {
			if i%8 == 0 {
				fmt.Printf("\n  gate %4d:", i)
			}
			fmt.Printf(" %7d", sz)
		}
		fmt.Println()
	}
	if *shots > 0 {
		rng := rand.New(rand.NewSource(*seed))
		var hist map[uint64]int
		if res.Density != nil {
			hist = res.Density.SampleMany(*shots, rng)
		} else {
			hist = s.M.SampleMany(res.Final, circ.NumQubits, *shots, rng)
		}
		fmt.Printf("samples (%d shots):\n", *shots)
		printed := 0
		for idx, count := range hist {
			fmt.Printf("  |%0*b⟩: %d\n", circ.NumQubits, idx, count)
			printed++
			if printed >= 32 {
				fmt.Printf("  ... (%d more outcomes)\n", len(hist)-printed)
				break
			}
		}
	}
	if *dotPath != "" {
		if res.Density != nil {
			fatal(fmt.Errorf("-dot renders state DDs; not supported on the density backend"))
		}
		if err := os.WriteFile(*dotPath, []byte(dd.DOT(res.Final, circ.Name)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}
}

// newStrategy builds the run's strategy from -strategy and -params through
// the core registry. auto classifies the circuit by gate mix and installs
// the committed approximability-atlas winner for its workload class — the
// same resolution the simulation service applies to strategy=auto — and
// returns a description of that choice; auto picks its own parameters.
func newStrategy(name, params string, circ *circuit.Circuit) (core.Strategy, string, error) {
	if name != "auto" {
		st, err := core.NewStrategyByName(name, json.RawMessage(params))
		return st, "", err
	}
	if params != "" {
		return nil, "", fmt.Errorf("-strategy auto picks its own parameters; -params may not be set")
	}
	class := gen.Classify(circ)
	win := atlas.Resolve(class)
	st, err := core.NewStrategyByName(win.Strategy, json.RawMessage(win.Params))
	label := strings.TrimSpace(win.Base + " " + win.Params)
	return st, fmt.Sprintf("class=%s -> %s (order=%s)", class, label, win.Order), err
}

// traceObserver prints every simulation event as it happens.
type traceObserver struct{ w io.Writer }

func (o traceObserver) OnGate(e core.GateEvent) {
	fmt.Fprintf(o.w, "gate %4d: %7d nodes\n", e.Index, e.Size)
}

func (o traceObserver) OnApproximation(r core.Round) {
	fmt.Fprintf(o.w, "approx after gate %4d: %6d -> %6d nodes (-%d), fidelity %.6f\n",
		r.GateIndex, r.Report.SizeBefore, r.Report.SizeAfter, r.Report.RemovedNodes, r.Report.Achieved)
}

func (o traceObserver) OnCleanup(e core.CleanupEvent) {
	fmt.Fprintf(o.w, "cleanup after gate %4d: freed %d pooled nodes (%d live)\n", e.GateIndex, e.Freed, e.Live)
}

func (o traceObserver) OnReorder(e core.ReorderEvent) {
	fmt.Fprintf(o.w, "reorder after gate %4d: %6d -> %6d nodes (%d swaps), order %v\n",
		e.GateIndex, e.SizeBefore, e.SizeAfter, e.Swaps, e.Order)
}

func (o traceObserver) OnChannel(e core.ChannelEvent) {
	if e.Branch < 0 {
		fmt.Fprintf(o.w, "channel after gate %4d: %s(p=%g) on qubit %d, %d nodes\n",
			e.GateIndex, e.Kind, e.Strength, e.Qubit, e.Size)
		return
	}
	fmt.Fprintf(o.w, "jump    after gate %4d: %s branch %d on qubit %d, %d nodes\n",
		e.GateIndex, e.Kind, e.Branch, e.Qubit, e.Size)
}

func (o traceObserver) OnFinish(e core.FinishEvent) {
	fmt.Fprintf(o.w, "finished: %d gates, max %d nodes, final %d nodes, %d rounds\n",
		e.GatesApplied, e.MaxDDSize, e.FinalDDSize, e.Rounds)
}

// sizeCollector records the per-gate size history for -history.
type sizeCollector struct {
	core.NopObserver
	sizes []int
}

func (o *sizeCollector) OnGate(e core.GateEvent) { o.sizes = append(o.sizes, e.Size) }

// multiObserver fans events out to several observers.
type multiObserver []core.Observer

func (m multiObserver) OnGate(e core.GateEvent) {
	for _, o := range m {
		o.OnGate(e)
	}
}

func (m multiObserver) OnApproximation(r core.Round) {
	for _, o := range m {
		o.OnApproximation(r)
	}
}

func (m multiObserver) OnCleanup(e core.CleanupEvent) {
	for _, o := range m {
		o.OnCleanup(e)
	}
}

func (m multiObserver) OnReorder(e core.ReorderEvent) {
	for _, o := range m {
		o.OnReorder(e)
	}
}

func (m multiObserver) OnChannel(e core.ChannelEvent) {
	for _, o := range m {
		o.OnChannel(e)
	}
}

func (m multiObserver) OnFinish(e core.FinishEvent) {
	for _, o := range m {
		o.OnFinish(e)
	}
}

// paramFlags collects repeatable key=value flag instances into a map.
type paramFlags struct{ m map[string]float64 }

func (p *paramFlags) String() string { return fmt.Sprint(p.m) }

func (p *paramFlags) Set(s string) error {
	key, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("parameter %s: %v", key, err)
	}
	if p.m == nil {
		p.m = make(map[string]float64)
	}
	p.m[key] = f
	return nil
}

func loadCircuit(qasmPath, genSpec string) (*circuit.Circuit, error) {
	switch {
	case qasmPath != "" && genSpec != "":
		return nil, fmt.Errorf("use either -qasm or -gen, not both")
	case qasmPath != "":
		src, err := os.ReadFile(qasmPath)
		if err != nil {
			return nil, err
		}
		prog, err := qasm.Parse(string(src), qasmPath)
		if err != nil {
			return nil, err
		}
		return prog.Circuit, nil
	case genSpec != "":
		return gen.FromSpec(genSpec)
	default:
		return nil, fmt.Errorf("no circuit given (use -qasm or -gen); try -gen qft:8")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddsim:", err)
	os.Exit(1)
}
