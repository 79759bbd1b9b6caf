// Memory-driven approximation on a quantum-supremacy circuit (the paper's
// Example 9): the DD grows toward the 2^n worst case, and the reactive
// strategy runs a round each time it passes the threshold. On this
// instance the rounds do not cap the DD: every approximate run peaks above
// the exact one (3,256-3,742 nodes against 2,551, as in docs/REPORT.md's
// Table I), because each round removes few nodes of a nearly flat state
// and the truncated state regrows. The program prints both runs.
package main

import (
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/supremacy"
)

func main() {
	cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 16, Seed: 0}
	circ, err := cfg.Generate()
	if err != nil {
		panic(err)
	}
	fmt.Printf("benchmark %s: %d qubits, %d gates, %d cycles\n",
		cfg.Name(), cfg.Qubits(), circ.Len(), cfg.Depth)

	s := repro.NewSimulator()
	exact, err := s.Run(circ, repro.Options{CollectSizeHistory: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nexact:  max DD %6d nodes, runtime %v\n", exact.MaxDDSize, exact.Runtime)

	for _, fround := range []float64{0.99, 0.975, 0.95} {
		s := sim.New()
		res, err := s.Run(circ, sim.Options{Strategy: &core.MemoryDriven{
			Threshold:     1 << 10,
			RoundFidelity: fround,
			Growth:        1.05,
		}})
		if err != nil {
			panic(err)
		}
		fmt.Printf("approx: max DD %6d nodes, runtime %v, rounds %2d, f_round %-5g → f_final %.3f\n",
			res.MaxDDSize, res.Runtime, len(res.Rounds), fround, res.EstimatedFidelity)
	}

	fmt.Println("\nexact size growth over the circuit (every 16th gate):")
	for i := 0; i < len(exact.SizeHistory); i += 16 {
		bar := exact.SizeHistory[i] * 60 / exact.MaxDDSize
		fmt.Printf("  gate %3d %6d |%s\n", i, exact.SizeHistory[i], stars(bar))
	}
}

func stars(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '*'
	}
	return string(s)
}
