// Command ddsim simulates a quantum circuit with optional approximation.
//
// The circuit comes from an OpenQASM 2.0 file (-qasm) or a builtin generator
// (-gen). -strategy takes any registered strategy name (exact, memory,
// fidelity, replace, reorder, ...) with its JSON parameters in -params, the
// same spelling as the simulation service's strategy and strategy_params
// fields; auto classifies the circuit's gate mix and installs the committed
// approximability-atlas winner for its workload class (docs/ATLAS.md).
// The strategy, backend and noise flags resolve through serve.ResolveRun,
// the resolver the service compiles submissions with, so ddsim accepts and
// rejects the same runs: auto, measured on the noiseless statevector
// atlas, is rejected together with -noise or -backend density.
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
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/qasm"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ddsim:", err)
		os.Exit(1)
	}
}

// run parses the command line, simulates, and prints the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ddsim", flag.ExitOnError)
	qasmPath := fs.String("qasm", "", "OpenQASM 2.0 file to simulate")
	genSpec := fs.String("gen", "", "builtin generator: qft:N | iqft:N | ghz:N | w:N | grover:N[:marked] | bv:N[:secret] | random:N:GATES[:seed] | qsup:RxC:DEPTH[:seed] | qaoa:N[:P[:seed]] | vqe:N[:L[:topo[:seed]]] | cliffordt:N[:GATES[:TCOUNT[:seed]]]")
	strategy := fs.String("strategy", "exact", "registered strategy name ("+strings.Join(core.StrategyNames(), ", ")+") or auto")
	params := fs.String("params", "", "the strategy's JSON parameters, e.g. '{\"threshold\":4096,\"round_fidelity\":0.99}' for memory")
	shots := fs.Int("shots", 0, "samples to draw from the final state")
	seed := fs.Int64("seed", 1, "sampling seed")
	dotPath := fs.String("dot", "", "write the final state DD in Graphviz format")
	history := fs.Bool("history", false, "print the per-gate DD size history")
	trace := fs.Bool("trace", false, "stream per-gate node counts, approximation rounds, and cleanups as they happen")
	optimize := fs.Bool("optimize", false, "peephole-optimize the circuit before simulating")
	noiseKind := fs.String("noise", "", "noise channel: depolarizing, amplitude_damping, dephasing, bit_flip, phase_flip (empty = noiseless)")
	var noiseParams paramFlags
	fs.Var(&noiseParams, "noise-param", "noise parameter as key=value (p, gamma, seed); repeatable")
	backend := fs.String("backend", "", "state representation: statevector or density (empty = statevector, or density when -noise is set)")
	fs.Parse(args) // exits on a bad flag (status 2) or -h (status 0)

	// `ddsim circuit.qasm` is the documented spelling; the single positional
	// argument is the QASM file, and every flag above — including -noise,
	// -noise-param, and -backend — must come before it.
	switch fs.NArg() {
	case 0:
	case 1:
		if *qasmPath != "" {
			return fmt.Errorf("both -qasm %s and positional %s given", *qasmPath, fs.Arg(0))
		}
		*qasmPath = fs.Arg(0)
	default:
		return fmt.Errorf("at most one positional argument (the QASM file; flags like -noise/-noise-param/-backend must precede it), got %v", fs.Args())
	}

	circ, err := loadCircuit(*qasmPath, *genSpec)
	if err != nil {
		return err
	}
	if *optimize {
		var stats opt.Stats
		circ, stats = opt.Optimize(circ)
		fmt.Fprintf(w, "optimized:  -%d pairs, %d merges, -%d identities (%d passes)\n",
			stats.CancelledPairs, stats.MergedGates, stats.DroppedGates, stats.Passes)
	}

	// The run settings resolve exactly as the simulation service resolves
	// a submission's strategy, backend and noise fields.
	_, opts, auto, err := serve.ResolveRun(circ, serve.JobRequest{
		Strategy:       *strategy,
		StrategyParams: json.RawMessage(*params),
		Backend:        *backend,
		Noise:          *noiseKind,
		NoiseParams:    noiseParams.m,
	})
	if err != nil {
		return err
	}
	if auto != "" {
		fmt.Fprintf(w, "auto:       %s\n", auto)
	}
	opts.CollectSizeHistory = *history
	if *trace {
		opts.Observer = traceObserver{w: w}
	}

	s := sim.New()
	res, err := s.Run(circ, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "circuit:    %s\n", circ.String())
	fmt.Fprintf(w, "strategy:   %s\n", res.StrategyName)
	if res.Backend != sim.BackendStatevector || res.Noise != nil {
		fmt.Fprintf(w, "backend:    %s\n", res.Backend)
	}
	if res.Noise != nil {
		fmt.Fprintf(w, "noise:      %s p=%g (%d channel applications)\n",
			res.Noise.Kind, res.Noise.P, res.ChannelApplications)
	}
	fmt.Fprintf(w, "max DD:     %d nodes\n", res.MaxDDSize)
	fmt.Fprintf(w, "final DD:   %d nodes\n", res.FinalDDSize)
	if res.Density != nil {
		fmt.Fprintf(w, "purity:     %.6f\n", res.Purity)
	}
	fmt.Fprintf(w, "runtime:    %v\n", res.Runtime)
	if res.InitialOrder != nil {
		fmt.Fprintf(w, "order:      %v", res.FinalOrder)
		if res.SiftPasses > 0 {
			fmt.Fprintf(w, " (from %v via %d sift passes, %d swaps)", res.InitialOrder, res.SiftPasses, res.SiftSwaps)
		}
		fmt.Fprintln(w)
	}
	if len(res.Rounds) > 0 {
		fmt.Fprintf(w, "rounds:     %d\n", len(res.Rounds))
		fmt.Fprintf(w, "fidelity:   %.6f (bound %.6f)\n", res.EstimatedFidelity, res.FidelityBound)
		for _, r := range res.Rounds {
			fmt.Fprintf(w, "  after gate %4d: %6d -> %6d nodes, fidelity %.6f\n",
				r.GateIndex, r.Report.SizeBefore, r.Report.SizeAfter, r.Report.Achieved)
		}
	}
	if *history {
		fmt.Fprint(w, "size history:")
		for i, sz := range res.SizeHistory {
			if i%8 == 0 {
				fmt.Fprintf(w, "\n  gate %4d:", i)
			}
			fmt.Fprintf(w, " %7d", sz)
		}
		fmt.Fprintln(w)
	}
	if *shots > 0 {
		hist := res.Sample(*shots, rand.New(rand.NewSource(*seed)))
		// Most frequent first, ties by index, so the listing (and which
		// outcomes the 32-line cut keeps) is the same on every run.
		outcomes := slices.Collect(maps.Keys(hist))
		slices.SortFunc(outcomes, func(a, b uint64) int {
			return cmp.Or(cmp.Compare(hist[b], hist[a]), cmp.Compare(a, b))
		})
		fmt.Fprintf(w, "samples (%d shots):\n", *shots)
		for i, idx := range outcomes {
			if i == 32 {
				fmt.Fprintf(w, "  ... (%d more outcomes)\n", len(outcomes)-i)
				break
			}
			fmt.Fprintf(w, "  |%0*b⟩: %d\n", circ.NumQubits, idx, hist[idx])
		}
	}
	if *dotPath != "" {
		if res.Density != nil {
			return fmt.Errorf("-dot renders state DDs; not supported on the density backend")
		}
		if err := os.WriteFile(*dotPath, []byte(dd.DOT(res.Final, circ.Name)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *dotPath)
	}
	return nil
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
