package dd

import (
	"math"
	"math/rand"
	"testing"
)

func TestBasisStates(t *testing.T) {
	m := New()
	for n := 1; n <= 5; n++ {
		for bits := uint64(0); bits < 1<<uint(n); bits++ {
			e := m.BasisState(n, bits)
			vec := m.ToVector(e, n)
			for i, a := range vec {
				want := complex128(0)
				if uint64(i) == bits {
					want = 1
				}
				if !approxEq(a, want, 1e-12) {
					t.Fatalf("n=%d bits=%d: amp[%d]=%v want %v", n, bits, i, a, want)
				}
			}
			if got := CountVNodes(e); got != n {
				t.Errorf("basis state on %d qubits has %d nodes, want %d", n, got, n)
			}
		}
	}
}

func TestBasisStateSharing(t *testing.T) {
	m := New()
	a := m.BasisState(4, 0b0101)
	b := m.BasisState(4, 0b0101)
	if a.N != b.N || a.W != b.W {
		t.Error("identical basis states are not the same edge (unique table broken)")
	}
}

func TestFromAmplitudesRoundTrip(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 8; n++ {
		vec := randomAmplitudes(n, rng)
		e, err := m.FromAmplitudes(vec)
		if err != nil {
			t.Fatal(err)
		}
		got := m.ToVector(e, n)
		vecApproxEq(t, got, vec, 1e-9, "round trip")
	}
}

func TestFromAmplitudesRejectsBadLength(t *testing.T) {
	m := New()
	if _, err := m.FromAmplitudes(make([]complex128, 3)); err == nil {
		t.Error("length 3 accepted")
	}
	if _, err := m.FromAmplitudes(nil); err == nil {
		t.Error("empty vector accepted")
	}
}

func TestAmplitudeMatchesToVector(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(2))
	n := 6
	vec := randomSparseAmplitudes(n, 0.3, rng)
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		t.Fatal(err)
	}
	full := m.ToVector(e, n)
	for i := range full {
		if got := m.Amplitude(e, uint64(i), n); !approxEq(got, full[i], 1e-12) {
			t.Fatalf("Amplitude(%d)=%v, ToVector=%v", i, got, full[i])
		}
	}
}

func TestNodeNormalizationInvariant(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(3))
	vec := randomAmplitudes(7, rng)
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range CollectVNodes(e) {
		sum := n.E[0].W.Abs2() + n.E[1].W.Abs2()
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("node %d children norm² = %v, want 1", n.ID(), sum)
		}
		// Canonical phase: first non-zero child weight is real positive.
		for c := 0; c < 2; c++ {
			w := n.E[c].W
			if w.Abs2() == 0 {
				continue
			}
			if !(w.Im == 0 && w.Re > 0) && c == 0 {
				t.Fatalf("node %d first child weight %v is not real positive", n.ID(), w)
			}
			break
		}
	}
}

func TestSharedStructureIsShared(t *testing.T) {
	// The state of the paper's Fig. 1c/1d: (|101⟩+|111⟩)/√2 has a repeated
	// q0 sub-structure that must be shared.
	m := New()
	vec := make([]complex128, 8)
	vec[0b101] = complex(1/math.Sqrt2, 0)
	vec[0b111] = complex(1/math.Sqrt2, 0)
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 1d has exactly 3 nodes: q2, q1, q0.
	if got := CountVNodes(e); got != 3 {
		t.Errorf("Fig. 1d state has %d nodes, want 3:\n%s", got, Render(e))
	}
}

func TestPaperFigure1State(t *testing.T) {
	// Fig. 1a: [1/√10, 0, 0, -1/√10, 0, 2/√10, 0, 2/√10] over |q2 q1 q0⟩.
	m := New()
	s := 1 / math.Sqrt(10)
	vec := []complex128{
		complex(s, 0), 0, 0, complex(-s, 0),
		0, complex(2*s, 0), 0, complex(2*s, 0),
	}
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's drawing (Fig. 1b) shows 6 nodes, but it leaves one q0 node
	// unshared for readability: the |1⟩-only q0 structure appears both under
	// the left and the right q1 node. With maximal sharing (which unique
	// tables enforce) the canonical DD has 5 nodes: one q2, two q1, two q0.
	if got := CountVNodes(e); got != 5 {
		t.Errorf("Fig. 1b DD has %d nodes, want 5 (maximally shared):\n%s", got, Render(e))
	}
	counts := make([]int, 3)
	for _, n := range CollectVNodes(e) {
		counts[n.Var]++
	}
	if counts[2] != 1 || counts[1] != 2 || counts[0] != 2 {
		t.Errorf("level counts = %v, want [2 2 1] (q0..q2)", counts)
	}
	// Example 4: amplitude of |011⟩ is -1/√10.
	if got := m.Amplitude(e, 0b011, 3); !approxEq(got, complex(-s, 0), 1e-12) {
		t.Errorf("amplitude(|011⟩) = %v, want %v", got, -s)
	}
	got := m.ToVector(e, 3)
	vecApproxEq(t, got, vec, 1e-12, "Fig. 1a")
}

func TestScaleAndNormalizeRoot(t *testing.T) {
	m := New()
	e := m.BasisState(3, 5)
	scaled := m.ScaleV(e, complex(0.5, 0.5))
	if math.Abs(scaled.W.Abs()-math.Sqrt(0.5)) > 1e-12 {
		t.Errorf("scaled weight magnitude %v", scaled.W.Abs())
	}
	normed := m.NormalizeRootWeight(scaled)
	if math.Abs(normed.W.Abs()-1) > 1e-12 {
		t.Errorf("normalized weight magnitude %v, want 1", normed.W.Abs())
	}
	// Phase must be preserved: 0.5+0.5i has phase e^{iπ/4}.
	want := complex(1/math.Sqrt2, 1/math.Sqrt2)
	if !approxEq(normed.W.Complex(), want, 1e-12) {
		t.Errorf("normalized weight %v, want %v", normed.W.Complex(), want)
	}
	if m.ScaleV(e, 0) != m.VZero() {
		t.Error("scale by zero did not produce canonical zero edge")
	}
}

func TestMakeVNodeZeroChildren(t *testing.T) {
	m := New()
	z := m.MakeVNode(0, m.VZero(), m.VZero())
	if !m.IsVZero(z) {
		t.Error("node with two zero children is not the zero edge")
	}
}

func TestStatsCounters(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(4))
	vec := randomAmplitudes(5, rng)
	if _, err := m.FromAmplitudes(vec); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.VUniqueSize == 0 || st.VNodesCreated == 0 || st.ComplexValues < 2 {
		t.Errorf("stats look empty: %+v", st)
	}
}

func TestNumQubits(t *testing.T) {
	m := New()
	if NumQubits(m.VZero()) != 0 {
		t.Error("zero edge qubits != 0")
	}
	if NumQubits(m.BasisState(7, 0)) != 7 {
		t.Error("basis state qubit count wrong")
	}
}
