package sim

import (
	"encoding/json"
	"fmt"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/supremacy"
)

// reorderStrategy builds a "reorder" registry strategy for the given static
// ordering, exercising the same path HTTP submissions take.
func reorderStrategy(t *testing.T, params string) core.Strategy {
	t.Helper()
	st, err := core.NewStrategyByName("reorder", json.RawMessage(params))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func orderTestCircuits(t *testing.T) map[string]*circuit.Circuit {
	t.Helper()
	sup, err := supremacy.Config{Rows: 3, Cols: 3, Depth: 8, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pairs := circuit.New(10, "pairs")
	for i := 0; i < 5; i++ {
		pairs.H(i)
		pairs.CX(i, i+5)
	}
	return map[string]*circuit.Circuit{
		"qft":       gen.QFT(8),
		"grover":    gen.Grover(8, 137, 0),
		"supremacy": sup,
		"pairs":     pairs,
	}
}

// TestOrderingDifferential is the acceptance differential: identity,
// reversed, and scored orderings (and scored+sift) must produce the same
// measurement distribution — amplitude by amplitude — as the identity-order
// reference on QFT, Grover, supremacy, and entangled-pairs circuits.
func TestOrderingDifferential(t *testing.T) {
	for name, c := range orderTestCircuits(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := Run(c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Manager.ToVector(ref.Final, c.NumQubits)

			for _, mode := range []string{
				`{"order":"identity"}`,
				`{"order":"reversed"}`,
				`{"order":"scored"}`,
				`{"order":"scored","sift":true,"sift_threshold":8}`,
			} {
				res, err := Run(c, Options{Strategy: reorderStrategy(t, mode)})
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				got := res.Manager.ToVector(res.Final, c.NumQubits)
				for i := range want {
					if d := cmplx.Abs(got[i] - want[i]); d > 1e-10 {
						t.Fatalf("%s: amplitude[%d] differs by %g", mode, i, d)
					}
				}
				if res.InitialOrder == nil {
					t.Fatalf("%s: InitialOrder not recorded", mode)
				}
				if res.FinalOrder == nil {
					t.Fatalf("%s: FinalOrder not recorded", mode)
				}
			}
		})
	}
}

// TestOrderingMeasurementDifferential runs mid-circuit measurements under
// every ordering with the same seed and expects identical outcome sequences
// (the collapse probabilities are exactly equal, so equal uniform draws give
// equal outcomes).
func TestOrderingMeasurementDifferential(t *testing.T) {
	c := circuit.New(6, "measured")
	for q := 0; q < 6; q++ {
		c.H(q)
	}
	c.CX(0, 3)
	c.CX(1, 4)
	c.Measure(2)
	c.CX(2, 5)
	c.Measure(4)
	c.H(1)
	c.Measure(0)

	ref, err := Run(c, Options{MeasurementSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{`{"order":"reversed"}`, `{"order":"scored"}`} {
		res, err := Run(c, Options{MeasurementSeed: 99, Strategy: reorderStrategy(t, mode)})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(res.Measurements) != len(ref.Measurements) {
			t.Fatalf("%s: %d measurements, want %d", mode, len(res.Measurements), len(ref.Measurements))
		}
		for i := range ref.Measurements {
			if res.Measurements[i] != ref.Measurements[i] {
				t.Fatalf("%s: measurement %d = %+v, want %+v", mode, i, res.Measurements[i], ref.Measurements[i])
			}
		}
	}
}

// TestOrderingComposesWithApproximation wraps the memory-driven strategy in
// a reorder strategy and checks rounds still fire and fidelity accounting
// still holds.
func TestOrderingComposesWithApproximation(t *testing.T) {
	c := orderTestCircuits(t)["supremacy"]
	st := reorderStrategy(t, `{"order":"scored","inner":"memory","inner_params":{"threshold":24,"round_fidelity":0.9}}`)
	res, err := Run(c, Options{Strategy: st})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no approximation rounds under the wrapped memory strategy")
	}
	if res.EstimatedFidelity <= 0 || res.EstimatedFidelity > 1 {
		t.Fatalf("EstimatedFidelity = %v", res.EstimatedFidelity)
	}
	if res.StrategyName != "reorder(scored)+memory-driven" {
		t.Fatalf("StrategyName = %q", res.StrategyName)
	}
}

// TestStaticOrderReducesPeak pins the headline win: the entangled-pairs
// workload peaks far lower under the scored order than under identity.
func TestStaticOrderReducesPeak(t *testing.T) {
	c := orderTestCircuits(t)["pairs"]
	ident, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scored, err := Run(c, Options{Strategy: reorderStrategy(t, `{"order":"scored"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if scored.MaxDDSize*4 > ident.MaxDDSize {
		t.Fatalf("scored order peak %d, identity peak %d: expected ≥ 4× reduction",
			scored.MaxDDSize, ident.MaxDDSize)
	}
}

// TestSiftingReducesPeakMidRun checks a dynamic pass fires, shrinks the
// state, and reports through the observer and the result.
func TestSiftingReducesPeakMidRun(t *testing.T) {
	c := orderTestCircuits(t)["pairs"]
	obs := &countingObserver{}
	res, err := Run(c, Options{
		Strategy: reorderStrategy(t, `{"order":"identity","sift":true,"sift_threshold":8,"sift_max_passes":4}`),
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SiftPasses == 0 || res.SiftSwaps == 0 {
		t.Fatalf("no sifting recorded: %+v", res)
	}
	if obs.reorders != res.SiftPasses {
		t.Fatalf("observer saw %d reorder events, result records %d passes", obs.reorders, res.SiftPasses)
	}
	if obs.lastReorder.SizeAfter >= obs.lastReorder.SizeBefore {
		t.Fatalf("last pass did not shrink: %+v", obs.lastReorder)
	}
	identityOrder := true
	for q, l := range res.FinalOrder {
		if q != l {
			identityOrder = false
		}
	}
	if identityOrder {
		t.Fatal("sifting left the identity order on a workload it must reorder")
	}
	if got := res.DDStats.LevelSwaps; got == 0 {
		t.Fatal("manager LevelSwaps counter not threaded into DDStats")
	}
}

// TestReorderRejectsPermGates: permutation payloads address levels directly.
func TestReorderRejectsPermGates(t *testing.T) {
	c := circuit.New(3, "perm")
	c.H(2)
	c.Permutation([]int{1, 0, 3, 2}, 2)
	for _, params := range []string{`{"order":"scored"}`, `{"order":"reversed"}`, `{"sift":true}`} {
		if _, err := Run(c, Options{Strategy: reorderStrategy(t, params)}); err == nil {
			t.Fatalf("reorder %s accepted a permutation-gate circuit", params)
		}
	}
	if _, err := Run(c, Options{}); err != nil {
		t.Fatalf("identity-order run must still work: %v", err)
	}
	for _, params := range []string{``, `{"order":"identity"}`} {
		if _, err := Run(c, Options{Strategy: reorderStrategy(t, params)}); err != nil {
			t.Fatalf("reorder %q keeps the identity order and must run: %v", params, err)
		}
	}
}

// TestOrderStrategyDirectConstruction covers NewReorder (the in-process,
// non-registry path) with an explicit inner strategy.
func TestOrderStrategyDirectConstruction(t *testing.T) {
	c := orderTestCircuits(t)["qft"]
	st := order.NewReorder(core.ReorderPolicy{Static: order.Reversed}, &core.MemoryDriven{Threshold: 1 << 12, RoundFidelity: 0.99})
	res, err := Run(c, Options{Strategy: st})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("reorder(%s)+memory-driven", order.Reversed)
	if res.StrategyName != want {
		t.Fatalf("StrategyName = %q, want %q", res.StrategyName, want)
	}
	for q, l := range res.InitialOrder {
		if l != c.NumQubits-1-q {
			t.Fatalf("InitialOrder = %v, want reversed", res.InitialOrder)
		}
	}
}

// sizeCheck wraps a reorder strategy and checks the core.Strategy contract
// the session relies on to skip a recount before sifting: a round's
// Report.SizeAfter is the node count of the state AfterGate returns.
type sizeCheck struct {
	*order.Strategy
	t      *testing.T
	rounds int
}

func (s *sizeCheck) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *core.Round, error) {
	ne, round, err := s.Strategy.AfterGate(m, gateIdx, size, state)
	if round != nil {
		s.rounds++
		if got := m.CountV(ne); got != round.Report.SizeAfter {
			s.t.Errorf("%s: round after gate %d reports SizeAfter %d, returned state has %d nodes",
				s.Name(), gateIdx, round.Report.SizeAfter, got)
		}
	}
	return ne, round, err
}

// TestRoundSizeAfterMatchesReturnedState runs every builtin approximating
// inner strategy under sifting and checks each round's SizeAfter.
func TestRoundSizeAfterMatchesReturnedState(t *testing.T) {
	c, err := supremacy.Config{Rows: 3, Cols: 3, Depth: 12, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []string{
		`"inner":"memory","inner_params":{"threshold":32,"round_fidelity":0.95,"growth":1.2}`,
		`"inner":"fidelity","inner_params":{"final_fidelity":0.5,"round_fidelity":0.9}`,
		`"inner":"replace","inner_params":{"node_budget":24}`,
	} {
		st := reorderStrategy(t, `{"order":"identity","sift":true,"sift_threshold":8,`+inner+`}`)
		check := &sizeCheck{Strategy: st.(*order.Strategy), t: t}
		res, err := Run(c, Options{Strategy: check})
		if err != nil {
			t.Fatal(err)
		}
		if check.rounds == 0 || res.SiftPasses == 0 {
			t.Errorf("%s: %d rounds, %d sift passes; want both to fire", check.Name(), check.rounds, res.SiftPasses)
		}
	}
}
