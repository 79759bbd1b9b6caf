// Grover search under approximation: how does removing DD nodes affect the
// probability of measuring the marked element? Grover states are highly
// structured (small DDs), so mild approximation is nearly free — a contrast
// to the supremacy workload and a demonstration of the error tolerance the
// paper's Section III motivates.
package main

import (
	"fmt"
	"math/rand"

	"repro"
)

func main() {
	const n = 10
	const marked = uint64(0b1100110011)

	circ := repro.GroverCircuit(n, marked, 0)
	fmt.Printf("Grover on %d qubits, marked |%0*b⟩, %d gates\n",
		n, n, marked, circ.Len())

	// Exact run.
	exact, err := repro.Run(circ, repro.Options{})
	if err != nil {
		panic(err)
	}
	pExact := exact.Manager.Probability(exact.Final, marked, n)
	fmt.Printf("\nexact:               P(marked) = %.4f, max DD %d nodes\n",
		pExact, exact.MaxDDSize)

	// Fidelity-driven runs with decreasing budgets.
	for _, ffinal := range []float64{0.9, 0.7, 0.5, 0.3} {
		cmp, err := repro.RunAndCompare(circ, repro.Options{
			Strategy: repro.NewFidelityDriven(ffinal, 0.95),
		})
		if err != nil {
			panic(err)
		}
		m := cmp.Approx.Manager
		p := m.Probability(cmp.Approx.Final, marked, n)
		fmt.Printf("f_final %.1f: P(marked) = %.4f, true fidelity %.4f, rounds %d, max DD %d\n",
			ffinal, p, cmp.TrueFidelity, len(cmp.Approx.Rounds), cmp.Approx.MaxDDSize)
	}

	// Sampling the approximate state still finds the marked element.
	cmp, err := repro.RunAndCompare(circ, repro.Options{
		Strategy: repro.NewFidelityDriven(0.5, 0.95),
	})
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(5))
	hits := 0
	const shots = 200
	for i := 0; i < shots; i++ {
		if cmp.Approx.Manager.Sample(cmp.Approx.Final, n, rng) == marked {
			hits++
		}
	}
	fmt.Printf("\nsampling the f≥0.5 state: %d/%d shots hit the marked element\n", hits, shots)
}
