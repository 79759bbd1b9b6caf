// Size–fidelity tradeoff sweep: the series behind Table I's hyper-parameter
// discussion. For a fixed Shor instance, sweep the per-round fidelity with a
// fixed final budget (Section IV-C's "few low-fidelity vs many high-fidelity
// rounds" tradeoff), and for a fixed supremacy instance sweep the
// memory-driven threshold — printing figure-style series.
package main

import (
	"fmt"

	"repro"
	"repro/internal/supremacy"
)

func main() {
	shorRoundTradeoff()
	fmt.Println()
	supremacyThresholdSweep()
}

// shorRoundTradeoff: f_final = 0.5 split into different round counts.
func shorRoundTradeoff() {
	inst, err := repro.NewShorInstance(33, 5)
	if err != nil {
		panic(err)
	}
	circ := inst.BuildCircuit()
	fmt.Printf("— %s: round-count tradeoff at f_final = 0.5 —\n", inst.Name())
	fmt.Println("f_round  rounds  maxDD   runtime      tracked-f")
	for _, fround := range []float64{0.51, 0.71, 0.8, 0.9, 0.95, 0.99} {
		strat := repro.NewFidelityDriven(0.5, fround)
		res, err := repro.Run(circ, repro.Options{Strategy: strat})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-7g  %-6d  %-6d  %-11v  %.3f\n",
			fround, len(res.Rounds), res.MaxDDSize, res.Runtime, res.EstimatedFidelity)
	}
}

// supremacyThresholdSweep: where should the memory-driven strategy kick in?
func supremacyThresholdSweep() {
	cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 16, Seed: 0}
	circ, err := cfg.Generate()
	if err != nil {
		panic(err)
	}
	fmt.Printf("— %s: threshold sweep at f_round = 0.975 —\n", cfg.Name())

	exact, err := repro.Run(circ, repro.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("exact reference: maxDD %d, runtime %v\n", exact.MaxDDSize, exact.Runtime)

	fmt.Println("threshold  rounds  maxDD   runtime      f_final")
	for _, threshold := range []int{1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12} {
		res, err := repro.Run(circ, repro.Options{Strategy: &repro.MemoryDriven{
			Threshold:     threshold,
			RoundFidelity: 0.975,
			Growth:        1.05,
		}})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-9d  %-6d  %-6d  %-11v  %.3f\n",
			threshold, len(res.Rounds), res.MaxDDSize, res.Runtime, res.EstimatedFidelity)
	}
}
