package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dd"
)

func TestPaperExample8Removal(t *testing.T) {
	// Removing the left q1 node (contribution 0.2) from the Fig. 1b DD must
	// yield the Fig. 1d state (|101⟩+|111⟩)/√2 with fidelity 0.8.
	m := dd.New()
	e := fig1State(t, m)
	contribs := Contributions(m, e)

	var leftQ1 *dd.VNode
	for n, c := range contribs {
		if n.Var == 1 && math.Abs(c-0.2) < 1e-12 {
			leftQ1 = n
		}
	}
	if leftQ1 == nil {
		t.Fatal("did not find the q1 node with contribution 0.2")
	}
	edits := map[*dd.VNode]SubstituteKind{leftQ1: substituteDelete}
	ne := rebuildWith(m, e, edits)
	if f := m.Fidelity(e, ne); math.Abs(f-0.8) > 1e-12 {
		t.Errorf("fidelity after removing 0.2-node = %v, want 0.8", f)
	}
	// Fig. 1d: 3 nodes, state (|101⟩+|111⟩)/√2.
	if got := dd.CountVNodes(ne); got != 3 {
		t.Errorf("approximated DD has %d nodes, want 3 (Fig. 1d)", got)
	}
	s := complex(1/math.Sqrt2, 0)
	want := []complex128{0, 0, 0, 0, 0, s, 0, s}
	got := m.ToVector(ne, 3)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("amplitude %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestApproximateFidelityLowerBound(t *testing.T) {
	// Property: for random states and random f_round, the achieved fidelity
	// never drops below f_round and matches the exact inner product.
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 40; trial++ {
		m := dd.New()
		n := 3 + rng.Intn(6)
		e := randomState(t, m, n, 0.3+rng.Float64()*0.7, rng)
		fround := 0.5 + rng.Float64()*0.5
		ne, rep, err := ApproximateToFidelity(m, e, fround)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Achieved < fround-1e-9 {
			t.Fatalf("achieved %v < requested %v", rep.Achieved, fround)
		}
		if exact := m.Fidelity(e, ne); math.Abs(exact-rep.Achieved) > 1e-9 {
			t.Fatalf("reported achieved %v != exact fidelity %v", rep.Achieved, exact)
		}
		if !rep.NoOp() {
			if rep.SizeAfter >= rep.SizeBefore {
				t.Fatalf("removal did not shrink DD: %d -> %d", rep.SizeBefore, rep.SizeAfter)
			}
			if norm := m.Norm(ne); math.Abs(norm-1) > 1e-9 {
				t.Fatalf("approximated state norm %v", norm)
			}
			if 1-rep.Achieved > rep.RemovedMass+1e-9 {
				t.Fatalf("lost mass %v exceeds raw removed mass %v", 1-rep.Achieved, rep.RemovedMass)
			}
		}
	}
}

func TestApproximateUniformState(t *testing.T) {
	// Uniform superposition has a single path-shared chain: every node's
	// contribution is 1, so nothing is removable.
	m := dd.New()
	n := 6
	vec := make([]complex128, 1<<uint(n))
	amp := complex(1/math.Sqrt(float64(len(vec))), 0)
	for i := range vec {
		vec[i] = amp
	}
	e, _ := m.FromAmplitudes(vec)
	ne, rep, err := ApproximateToFidelity(m, e, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NoOp() {
		t.Errorf("uniform state lost %d nodes", rep.RemovedNodes)
	}
	if ne != e {
		t.Error("no-op approximation returned a different edge")
	}
}

func TestApproximateFullBudgetRejected(t *testing.T) {
	m := dd.New()
	e := m.BasisState(3, 0)
	if _, _, err := ApproximateToFidelity(m, e, 0); err == nil {
		t.Error("f_round = 0 accepted")
	}
	if _, _, err := ApproximateToFidelity(m, e, 1.5); err == nil {
		t.Error("f_round > 1 accepted")
	}
}

func TestApproximateRoundOne(t *testing.T) {
	// f_round = 1 must be a strict no-op.
	m := dd.New()
	rng := rand.New(rand.NewSource(61))
	e := randomState(t, m, 5, 0.5, rng)
	ne, rep, err := ApproximateToFidelity(m, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NoOp() || ne != e {
		t.Error("f_round = 1 modified the state")
	}
}

func TestLemma1TruncationFactorization(t *testing.T) {
	// Lemma 1 on raw truncations: F(ψ, φ_I) = F(ψ, ψ_I)·F(ψ_I, φ_I) where
	// φ = ψ_J is itself a truncation of ψ. Realized with DD approximations:
	// approximate twice in sequence and compare fidelities.
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 25; trial++ {
		m := dd.New()
		n := 4 + rng.Intn(5)
		psi := randomState(t, m, n, 0.6, rng)
		psi1, rep1, err := ApproximateToFidelity(m, psi, 0.8+rng.Float64()*0.15)
		if err != nil {
			t.Fatal(err)
		}
		psi2, rep2, err := ApproximateToFidelity(m, psi1, 0.8+rng.Float64()*0.15)
		if err != nil {
			t.Fatal(err)
		}
		if rep1.NoOp() && rep2.NoOp() {
			continue
		}
		lhs := m.Fidelity(psi, psi2)
		rhs := m.Fidelity(psi, psi1) * m.Fidelity(psi1, psi2)
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("Lemma 1 violated: F(ψ,ψ'') = %v, F(ψ,ψ')·F(ψ',ψ'') = %v", lhs, rhs)
		}
	}
}

func TestRemoveNodesPreservesUntouchedAmplitudeRatios(t *testing.T) {
	// Truncation only zeroes and rescales: surviving amplitudes keep their
	// relative values (Eq. (1)).
	rng := rand.New(rand.NewSource(63))
	m := dd.New()
	n := 5
	e := randomState(t, m, n, 0.5, rng)
	ne, rep, err := ApproximateToFidelity(m, e, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoOp() {
		t.Skip("nothing removed for this seed")
	}
	orig := m.ToVector(e, n)
	appr := m.ToVector(ne, n)
	scale := complex128(0)
	for i := range appr {
		if cmplx.Abs(appr[i]) > 1e-9 {
			if scale == 0 {
				scale = orig[i] / appr[i]
			} else if cmplx.Abs(orig[i]/appr[i]-scale) > 1e-6 {
				t.Fatalf("surviving amplitude %d rescaled inconsistently: %v vs %v",
					i, orig[i]/appr[i], scale)
			}
		}
	}
	if scale == 0 {
		t.Fatal("approximation left no surviving amplitudes")
	}
	// |scale| = ‖P_I ψ‖ = sqrt(F).
	if math.Abs(cmplx.Abs(scale)-math.Sqrt(rep.Achieved)) > 1e-9 {
		t.Errorf("rescale factor |%v| != sqrt(F)=%v", cmplx.Abs(scale), math.Sqrt(rep.Achieved))
	}
}
