// Quickstart: build a small circuit, simulate it on decision diagrams,
// inspect the DD, and apply one approximation round with a controlled
// fidelity budget — the paper's Fig. 1 / Examples 7–8 walked end to end.
package main

import (
	"fmt"
	"math"

	"repro"
)

func main() {
	// --- 1. Exact simulation of a Bell pair (paper Example 3) -------------
	bell := repro.NewCircuit(2, "bell")
	bell.H(1)
	bell.CX(1, 0)

	res, err := repro.Run(bell, repro.Options{})
	if err != nil {
		panic(err)
	}
	m := res.Manager // the run's own DD manager
	fmt.Println("Bell state amplitudes:")
	for i, a := range m.ToVector(res.Final, 2) {
		fmt.Printf("  |%02b⟩: %v\n", i, a)
	}

	// --- 2. The paper's Fig. 1 state and its decision diagram -------------
	inv := 1 / math.Sqrt(10)
	fig1, err := m.FromAmplitudes([]complex128{
		complex(inv, 0), 0, 0, complex(-inv, 0),
		0, complex(2*inv, 0), 0, complex(2*inv, 0),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nFig. 1 state as a DD (%d nodes):\n%s", repro.CountNodes(fig1), repro.RenderDD(fig1))

	// --- 3. Node contributions (Definition 2, Example 7) ------------------
	fmt.Println("node contributions per level:")
	for node, c := range repro.NodeContributions(m, fig1) {
		fmt.Printf("  q%d node #%d: %.3f\n", node.Var, node.ID(), c)
	}

	// --- 4. Approximation rounds with fidelity budgets (Example 8) --------
	// A 0.1 budget removes only the cheapest node (contribution 0.1).
	mild, report, err := repro.ApproximateToFidelity(m, fig1, 0.9)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nbudget 0.1: %d → %d nodes, achieved fidelity %.3f\n",
		report.SizeBefore, repro.CountNodes(mild), report.Achieved)

	// A 0.3 budget also removes the 0.2-contribution q1 node; because its
	// child overlaps the cheaper removal, only 0.2 mass is actually lost:
	// achieved fidelity 0.8 and the paper's Fig. 1d state.
	var approx repro.VEdge
	approx, report, err = repro.ApproximateToFidelity(m, fig1, 0.7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("budget 0.3: %d → %d nodes, achieved fidelity %.3f\n",
		report.SizeBefore, report.SizeAfter, report.Achieved)
	fmt.Printf("resulting state (the paper's Fig. 1d, (|101⟩+|111⟩)/√2):\n%s",
		repro.RenderDD(approx))
	fmt.Printf("true fidelity check: %.3f\n", m.Fidelity(fig1, approx))
}
