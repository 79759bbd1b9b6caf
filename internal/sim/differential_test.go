package sim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
)

// pairsCircuit builds the entangled-pairs workload: H on the low half, then
// CX(i, i+n/2) — the structured state whose identity-order DD peaks
// exponentially, the frontier workload for delete-vs-replace comparisons.
func pairsCircuit(n int) *circuit.Circuit {
	c := circuit.New(n, "pairs")
	for i := 0; i < n/2; i++ {
		c.Apply("h", nil, i)
		c.Apply("x", nil, i+n/2, dd.PosControl(i))
	}
	return c
}

// sizeDriven is the delete-based analogue of core.ReplaceDriven: the same
// fixed node budget enforced after every gate, but by node deletion. It
// exists so the differential test compares the two passes at a genuinely
// equal budget, round for round. It returns the pass's Report unchanged,
// so SizeAfter is the returned state's node count, as core.Strategy
// requires.
type sizeDriven struct{ budget int }

func (s *sizeDriven) Name() string          { return "size-delete" }
func (s *sizeDriven) Init(int, []int) error { return nil }
func (s *sizeDriven) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *core.Round, error) {
	if size <= s.budget {
		return state, nil, nil
	}
	ne, rep, err := core.ApproximateToSize(m, state, s.budget)
	if err != nil || rep.NoOp() {
		return state, nil, err
	}
	return ne, &core.Round{GateIndex: gateIdx, Report: rep}, nil
}

// vecFidelity is |⟨a|b⟩|² on expanded vectors, usable across managers.
func vecFidelity(a, b []complex128) float64 {
	var ip complex128
	for i := range a {
		ip += cmplx.Conj(a[i]) * b[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// TestReplaceBeatsDeleteOnPairs is the differential claim of the replace
// strategy (arXiv 2507.04335) on this repo's frontier workload: simulated
// end to end under the same per-gate node budget, node replacement must end
// with fidelity at least as high as node deletion, at every budget on the
// sweep.
func TestReplaceBeatsDeleteOnPairs(t *testing.T) {
	const n = 12
	c := pairsCircuit(n)

	exact, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exactVec := exact.Manager.ToVector(exact.Final, n)

	for _, budget := range []int{12, 16, 24, 32, 48} {
		del, err := Run(c, Options{Strategy: &sizeDriven{budget: budget}})
		if err != nil {
			t.Fatalf("budget %d delete: %v", budget, err)
		}
		rep, err := Run(c, Options{Strategy: &core.ReplaceDriven{NodeBudget: budget}})
		if err != nil {
			t.Fatalf("budget %d replace: %v", budget, err)
		}
		fDel := vecFidelity(exactVec, del.Manager.ToVector(del.Final, n))
		fRep := vecFidelity(exactVec, rep.Manager.ToVector(rep.Final, n))
		sDel := dd.CountVNodes(del.Final)
		sRep := dd.CountVNodes(rep.Final)
		t.Logf("budget %d: delete fid %.6f (%d nodes), replace fid %.6f (%d nodes)",
			budget, fDel, sDel, fRep, sRep)
		if fRep < fDel-1e-9 {
			t.Errorf("budget %d: replace fidelity %v below delete %v", budget, fRep, fDel)
		}
		if sRep > budget && sRep > sDel {
			// Budgets below the minimal chain size are unreachable for both
			// passes; replace must never end larger than delete.
			t.Errorf("budget %d: replace final size %d above budget and delete size %d", budget, sRep, sDel)
		}
	}
}

// TestReplaceFrontierDominatesOnFinalState sweeps budgets over the exact
// peak state of the pairs workload and checks the one-shot primitives: at
// every equal node budget, the replace pass keeps fidelity ≥ the delete
// pass.
func TestReplaceFrontierDominatesOnFinalState(t *testing.T) {
	const n = 14
	c := pairsCircuit(n)
	exact, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, e := exact.Manager, exact.Final
	before := dd.CountVNodes(e)
	for _, budget := range []int{before / 2, before / 4, before / 8, n + 2} {
		if budget < 1 {
			continue
		}
		nd, repDel, err := core.ApproximateToSize(m, e, budget)
		if err != nil {
			t.Fatal(err)
		}
		nr, repRep, err := core.ApproximateToSizeReplace(m, e, budget, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		fDel, fRep := m.Fidelity(e, nd), m.Fidelity(e, nr)
		t.Logf("budget %d: delete fid %.6f (%d nodes), replace fid %.6f (%d nodes)",
			budget, fDel, repDel.SizeAfter, fRep, repRep.SizeAfter)
		if fRep < fDel-1e-9 {
			t.Errorf("budget %d: replace fidelity %v below delete %v", budget, fRep, fDel)
		}
		// Delete may overshoot far below the budget; replace within the
		// budget is a win. Only over-budget AND over-delete is dominated.
		if repRep.SizeAfter > budget && repRep.SizeAfter > repDel.SizeAfter {
			t.Errorf("budget %d: replace size %d above budget and delete size %d", budget, repRep.SizeAfter, repDel.SizeAfter)
		}
	}
}

// chiSquared compares sampled frequencies to expected probabilities. Bins
// with expected count < 5 are pooled (the standard χ² validity rule);
// returns the statistic and the degrees of freedom.
func chiSquared(hist map[uint64]int, probs []float64, shots int) (float64, int) {
	stat, dof := 0.0, -1
	restExp, restObs := 0.0, 0
	for idx, p := range probs {
		exp := float64(shots) * p
		obs := float64(hist[uint64(idx)])
		if exp < 5 {
			restExp += exp
			restObs += hist[uint64(idx)]
			continue
		}
		d := obs - exp
		stat += d * d / exp
		dof++
	}
	if restExp > 0 {
		d := float64(restObs) - restExp
		stat += d * d / restExp
		dof++
	}
	if dof < 1 {
		dof = 1
	}
	return stat, dof
}

// TestSamplingMatchesAmplitudesDifferential is the trajectory-vs-amplitude
// oracle: for small circuits simulated under the delete and replace
// strategies (and exactly), Sample frequencies over many shots must converge
// to the |amplitude|² distribution of the very state being sampled — a χ²
// test with a ~5σ bound, deterministic under the fixed seed.
func TestSamplingMatchesAmplitudesDifferential(t *testing.T) {
	const shots = 40000
	cases := []struct {
		name     string
		circ     *circuit.Circuit
		strategy func() core.Strategy
	}{
		{"pairs-exact", pairsCircuit(8), func() core.Strategy { return core.Exact{} }},
		{"pairs-delete", pairsCircuit(8), func() core.Strategy { return &sizeDriven{budget: 10} }},
		{"pairs-replace", pairsCircuit(8), func() core.Strategy { return &core.ReplaceDriven{NodeBudget: 10} }},
		{"random-delete", randomCircuit(6, 40, rand.New(rand.NewSource(7))), func() core.Strategy {
			return &sizeDriven{budget: 12}
		}},
		{"random-replace", randomCircuit(6, 40, rand.New(rand.NewSource(7))), func() core.Strategy {
			return &core.ReplaceDriven{NodeBudget: 12}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.circ, Options{Strategy: tc.strategy()})
			if err != nil {
				t.Fatal(err)
			}
			n := tc.circ.NumQubits
			vec := res.Manager.ToVector(res.Final, n)
			probs := make([]float64, len(vec))
			for i, a := range vec {
				probs[i] = real(a)*real(a) + imag(a)*imag(a)
			}
			rng := rand.New(rand.NewSource(42))
			hist := res.Manager.SampleMany(res.Final, n, shots, rng)
			for idx, count := range hist {
				if probs[idx] == 0 && count > 0 {
					t.Fatalf("sampled zero-probability state %b %d times", idx, count)
				}
			}
			stat, dof := chiSquared(hist, probs, shots)
			// ~5σ upper bound for χ²(dof): mean dof, variance 2·dof.
			bound := float64(dof) + 5*math.Sqrt(2*float64(dof)) + 10
			t.Logf("χ² = %.2f, dof = %d, bound = %.2f", stat, dof, bound)
			if stat > bound {
				t.Errorf("sampling diverges from amplitudes: χ² = %v > %v (dof %d)", stat, bound, dof)
			}
		})
	}
}
