package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func reversedOrder(n int) []int {
	p := make([]int, n)
	for q := range p {
		p[q] = n - 1 - q
	}
	return p
}

func TestSetOrderValidation(t *testing.T) {
	m := New()
	if err := m.SetOrder([]int{1, 0, 2}); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
	if m.OrderIsIdentity() {
		t.Fatal("order should not be identity")
	}
	if err := m.SetOrder([]int{0, 0, 1}); err == nil {
		t.Fatal("duplicate level accepted")
	}
	if err := m.SetOrder([]int{0, 3, 1}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if err := m.SetOrder(nil); err != nil {
		t.Fatalf("reset via nil: %v", err)
	}
	if !m.OrderIsIdentity() {
		t.Fatal("nil order should restore identity")
	}
	// Qubits beyond the permutation stay at their identity level.
	if err := m.SetOrder([]int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if got := m.QubitLevel(5); got != 5 {
		t.Fatalf("QubitLevel(5) = %d under a 3-qubit order, want 5", got)
	}
	if got := m.LevelQubit(5); got != 5 {
		t.Fatalf("LevelQubit(5) = %d, want 5", got)
	}
	if got := m.Order(4); got[0] != 2 || got[1] != 0 || got[2] != 1 || got[3] != 3 {
		t.Fatalf("Order(4) = %v", got)
	}
}

// TestBasisStateRoundTripUnderOrder checks BasisState/Amplitude/ToVector
// agree on qubit-indexed semantics for a non-trivial order.
func TestBasisStateRoundTripUnderOrder(t *testing.T) {
	const n = 4
	for _, perm := range [][]int{nil, reversedOrder(n), {2, 0, 3, 1}} {
		m := New()
		if err := m.SetOrder(perm); err != nil {
			t.Fatal(err)
		}
		for bits := uint64(0); bits < 1<<n; bits++ {
			e := m.BasisState(n, bits)
			vec := m.ToVector(e, n)
			for idx := range vec {
				want := complex128(0)
				if uint64(idx) == bits {
					want = 1
				}
				if vec[idx] != want {
					t.Fatalf("order %v: |%04b⟩ ToVector[%04b] = %v, want %v", perm, bits, idx, vec[idx], want)
				}
				if amp := m.Amplitude(e, uint64(idx), n); amp != want {
					t.Fatalf("order %v: |%04b⟩ Amplitude(%04b) = %v, want %v", perm, bits, idx, amp, want)
				}
			}
		}
	}
}

// TestGateSemanticsUnderOrder applies gates qubit-indexed under several
// orders and checks the dense amplitude vectors agree with the identity
// order run.
func TestGateSemanticsUnderOrder(t *testing.T) {
	const n = 4
	apply := func(perm []int) []complex128 {
		m := New()
		if err := m.SetOrder(perm); err != nil {
			t.Fatal(err)
		}
		state := m.BasisState(n, 0)
		h := [4]complex128{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)}
		x := [4]complex128{0, 1, 1, 0}
		tg := [4]complex128{1, 0, 0, cmplx.Exp(complex(0, math.Pi/4))}
		state = m.MulVec(m.MakeGateDD(n, h, 0), state)
		state = m.MulVec(m.MakeGateDD(n, x, 2, PosControl(0)), state)
		state = m.MulVec(m.MakeGateDD(n, tg, 2), state)
		state = m.MulVec(m.MakeGateDD(n, x, 3, PosControl(2), NegControl(1)), state)
		state = m.MulVec(m.MakeGateDD(n, h, 1), state)
		return m.ToVector(state, n)
	}
	want := apply(nil)
	for _, perm := range [][]int{reversedOrder(n), {2, 0, 3, 1}, {1, 3, 0, 2}} {
		got := apply(perm)
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-12 {
				t.Fatalf("order %v: amplitude[%d] = %v, want %v (Δ=%g)", perm, i, got[i], want[i], d)
			}
		}
	}
}

// randomState builds a dense random state and its DD.
func randomState(t *testing.T, m *Manager, n int, rng *rand.Rand) (VEdge, []complex128) {
	t.Helper()
	vec := make([]complex128, 1<<n)
	norm := 0.0
	for i := range vec {
		vec[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(vec[i])*real(vec[i]) + imag(vec[i])*imag(vec[i])
	}
	s := complex(1/math.Sqrt(norm), 0)
	for i := range vec {
		vec[i] *= s
	}
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		t.Fatal(err)
	}
	return e, vec
}

// TestSwapAdjacentLevelsPreservesSemantics swaps every adjacent pair of a
// random state and checks the qubit-indexed amplitudes never change.
func TestSwapAdjacentLevelsPreservesSemantics(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(7))
	m := New()
	e, vec := randomState(t, m, n, rng)
	for l := 0; l < n-1; l++ {
		before := m.Order(n)
		e = m.SwapAdjacentLevels(l, e)
		after := m.Order(n)
		qa, qb := -1, -1
		for q := 0; q < n; q++ {
			if before[q] == l {
				qa = q
			}
			if before[q] == l+1 {
				qb = q
			}
		}
		if after[qa] != l+1 || after[qb] != l {
			t.Fatalf("swap(%d): order %v -> %v did not exchange qubits %d,%d", l, before, after, qa, qb)
		}
		got := m.ToVector(e, n)
		for i := range vec {
			if d := cmplx.Abs(got[i] - vec[i]); d > 1e-12 {
				t.Fatalf("after swap(%d): amplitude[%d] Δ=%g", l, i, d)
			}
		}
	}
	if m.Stats().LevelSwaps != n-1 {
		t.Fatalf("LevelSwaps = %d, want %d", m.Stats().LevelSwaps, n-1)
	}
}

// TestSwapRoundTripRestoresStructure checks that swapping the same pair
// twice returns to a DD with the same node count and order.
func TestSwapRoundTripRestoresStructure(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(11))
	m := New()
	e, _ := randomState(t, m, n, rng)
	size := CountVNodes(e)
	order := m.Order(n)
	e = m.SwapAdjacentLevels(2, m.SwapAdjacentLevels(2, e))
	if got := CountVNodes(e); got != size {
		t.Fatalf("double swap changed node count %d -> %d", size, got)
	}
	after := m.Order(n)
	for q := range order {
		if order[q] != after[q] {
			t.Fatalf("double swap changed order %v -> %v", order, after)
		}
	}
}

// pairedState builds the entangled-pairs workload: qubit i entangled with
// qubit i+n/2. Under the identity order its DD is exponential in n/2; with
// partners adjacent it is linear.
func pairedState(t *testing.T, m *Manager, n int) VEdge {
	t.Helper()
	h := [4]complex128{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)}
	x := [4]complex128{0, 1, 1, 0}
	state := m.BasisState(n, 0)
	for i := 0; i < n/2; i++ {
		state = m.MulVec(m.MakeGateDD(n, h, i), state)
		state = m.MulVec(m.MakeGateDD(n, x, i+n/2, PosControl(i)), state)
	}
	return state
}

// TestSiftShrinksEntangledPairs runs sifting on the paired workload and
// expects a large node-count reduction with semantics intact.
func TestSiftShrinksEntangledPairs(t *testing.T) {
	const n = 10
	m := New()
	state := pairedState(t, m, n)
	before := m.ToVector(state, n)
	sizeBefore := CountVNodes(state)

	state, rep := m.Sift(n, state, 0)
	if rep.SizeBefore != sizeBefore {
		t.Fatalf("report SizeBefore = %d, want %d", rep.SizeBefore, sizeBefore)
	}
	if rep.SizeAfter >= sizeBefore/2 {
		t.Fatalf("sift achieved too little: %d -> %d nodes", sizeBefore, rep.SizeAfter)
	}
	if got := CountVNodes(state); got != rep.SizeAfter {
		t.Fatalf("actual size %d != reported %d", got, rep.SizeAfter)
	}
	if rep.Swaps == 0 || rep.VarsSifted == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	after := m.ToVector(state, n)
	for i := range before {
		if d := cmplx.Abs(after[i] - before[i]); d > 1e-12 {
			t.Fatalf("sift changed amplitude[%d] by %g", i, d)
		}
	}
	// The pass's final Cleanup must have recycled the exploration
	// transients: live pool occupancy is the surviving state plus the
	// manager's always-retained identity chain (n matrix nodes).
	if live := m.Pool().Live; live > rep.SizeAfter+n {
		t.Fatalf("pool live = %d after sift, want ≤ %d (transients not recycled)", live, rep.SizeAfter+n)
	}
}

// TestSiftDeterministic runs the same sift twice on fresh managers and
// expects identical orders and reports.
func TestSiftDeterministic(t *testing.T) {
	run := func() ([]int, SiftReport) {
		m := New()
		state := pairedState(t, m, 8)
		_, rep := m.Sift(8, state, 4)
		return m.Order(8), rep
	}
	o1, r1 := run()
	o2, r2 := run()
	if r1 != r2 {
		t.Fatalf("reports differ: %+v vs %+v", r1, r2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("orders differ: %v vs %v", o1, o2)
		}
	}
}

// TestStaticOrderShrinksEntangledPairs verifies the headline effect: the
// paired workload built under a partner-adjacent order peaks far below the
// identity order.
func TestStaticOrderShrinksEntangledPairs(t *testing.T) {
	const n = 10
	ident := New()
	si := pairedState(t, ident, n)

	adj := New()
	perm := make([]int, n)
	for i := 0; i < n/2; i++ {
		perm[i] = 2 * i
		perm[i+n/2] = 2*i + 1
	}
	if err := adj.SetOrder(perm); err != nil {
		t.Fatal(err)
	}
	sa := pairedState(t, adj, n)

	if ci, ca := CountVNodes(si), CountVNodes(sa); ca*4 > ci {
		t.Fatalf("adjacent-pairs order did not shrink the DD: identity %d nodes, adjacent %d", ci, ca)
	}
	vi, va := ident.ToVector(si, n), adj.ToVector(sa, n)
	for i := range vi {
		if d := cmplx.Abs(vi[i] - va[i]); d > 1e-12 {
			t.Fatalf("orders disagree at amplitude[%d]: Δ=%g", i, d)
		}
	}
}

// TestSampleUnderOrder checks sampling respects qubit indexing: a basis
// state must always sample to itself regardless of order.
func TestSampleUnderOrder(t *testing.T) {
	const n = 5
	m := New()
	if err := m.SetOrder([]int{3, 1, 4, 0, 2}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for bits := uint64(0); bits < 1<<n; bits += 3 {
		e := m.BasisState(n, bits)
		if got := m.Sample(e, n, rng); got != bits {
			t.Fatalf("Sample(|%05b⟩) = %05b", bits, got)
		}
	}
}
