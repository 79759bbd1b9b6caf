package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/circuit"
)

// Comparison relates an approximate simulation to the exact reference on the
// same circuit, as the paper's empirical validation does.
type Comparison struct {
	Exact  *Result
	Approx *Result
	// TrueFidelity is |⟨exact|approx⟩|², measured directly between the two
	// final states.
	TrueFidelity float64
	// EstimateError is |TrueFidelity − Π round fidelities|. Lemma 1 makes
	// the product exact for the hierarchical truncations of Section V; with
	// unitaries between rounds the product is the paper's tracked estimate,
	// whose deviation this field measures.
	EstimateError float64
	// SizeReduction is exact max DD size / approx max DD size.
	SizeReduction float64
	// Speedup is exact runtime / approx runtime.
	Speedup float64
}

// RunAndCompare simulates the circuit exactly and with the provided options'
// strategy, each on its own manager, and measures the true final fidelity.
// The exact reference starts from the same initial state and draws the same
// measurement outcomes (opts.MeasurementSeed). Only feasible where the exact
// simulation itself is feasible; the density backend is refused.
func RunAndCompare(c *circuit.Circuit, opts Options) (*Comparison, error) {
	exact, err := Run(c, Options{InitialState: opts.InitialState, MeasurementSeed: opts.MeasurementSeed})
	if err != nil {
		return nil, fmt.Errorf("sim: exact reference run: %w", err)
	}
	approx, err := Run(c, opts)
	if err != nil {
		return nil, fmt.Errorf("sim: approximate run: %w", err)
	}
	f, err := Fidelity(exact, approx)
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{
		Exact:         exact,
		Approx:        approx,
		TrueFidelity:  f,
		EstimateError: math.Abs(f - approx.EstimatedFidelity),
	}
	if approx.MaxDDSize > 0 {
		cmp.SizeReduction = float64(exact.MaxDDSize) / float64(approx.MaxDDSize)
	}
	if approx.Runtime > 0 {
		cmp.Speedup = float64(exact.Runtime) / float64(approx.Runtime)
	}
	return cmp, nil
}

// Fidelity returns |⟨a|b⟩|² between the final states of two statevector
// results, each on its own manager. It refuses results without a final
// state vector (the density backend, or a batch result read after its
// Finalize hook) and results over different qubits or variable orders,
// whose DD levels do not pair up.
func Fidelity(a, b *Result) (float64, error) {
	for _, r := range []*Result{a, b} {
		if r.Manager == nil || r.Final.N == nil {
			return 0, fmt.Errorf("sim: fidelity needs two final state vectors, and a %s result has none", r.Backend)
		}
	}
	if a.NumQubits != b.NumQubits {
		return 0, fmt.Errorf("sim: fidelity between %d- and %d-qubit states", a.NumQubits, b.NumQubits)
	}
	if oa, ob := a.Manager.Order(a.NumQubits), b.Manager.Order(b.NumQubits); !slices.Equal(oa, ob) {
		return 0, fmt.Errorf("sim: fidelity between states under variable orders %v and %v", oa, ob)
	}
	return a.Manager.Fidelity(a.Final, b.Final), nil
}
