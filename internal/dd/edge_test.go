package dd

import (
	"math"
	"math/rand"
	"testing"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestLevelMismatchPanics(t *testing.T) {
	m := New()
	a := m.BasisState(3, 0)
	b := m.BasisState(4, 0)
	mustPanic(t, "Add level mismatch", func() { m.Add(a, b) })
	g := m.MakeGateDD(3, gateX, 0)
	mustPanic(t, "MulVec level mismatch", func() { m.MulVec(g, b) })
	mustPanic(t, "InnerProduct level mismatch", func() { m.InnerProduct(a, b) })
	g4 := m.MakeGateDD(4, gateX, 0)
	mustPanic(t, "MulMat level mismatch", func() { m.MulMat(g, g4) })
}

func TestGateConstructionValidation(t *testing.T) {
	m := New()
	mustPanic(t, "target out of range", func() { m.MakeGateDD(3, gateX, 5) })
	mustPanic(t, "control out of range", func() { m.MakeGateDD(3, gateX, 0, PosControl(9)) })
	mustPanic(t, "control == target", func() { m.MakeGateDD(3, gateX, 1, PosControl(1)) })
	mustPanic(t, "duplicate control", func() {
		m.MakeGateDD(3, gateX, 0, PosControl(1), NegControl(1))
	})
	mustPanic(t, "ExtendMatrix control below", func() {
		base, _ := m.MakePermutationDD([]int{1, 0})
		m.ExtendMatrix(base, 1, 3, PosControl(0))
	})
	mustPanic(t, "BasisState bad count", func() { m.BasisState(0, 0) })
	mustPanic(t, "Identity negative", func() { m.Identity(-1) })
}

func TestSampleZeroStatePanics(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(1))
	mustPanic(t, "Sample on zero edge", func() { m.Sample(m.VZero(), 2, rng) })
}

func TestAmplitudeOnMismatchedDepth(t *testing.T) {
	m := New()
	// A state with no zero amplitudes, so the walk cannot terminate early
	// by hitting a zero weight before the terminal.
	e, err := m.FromAmplitudes([]complex128{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Amplitude too deep", func() { m.Amplitude(e, 0, 5) })
}

func TestMakeVNodeLevelCheck(t *testing.T) {
	m := New()
	deep := m.BasisState(3, 0) // root var 2
	mustPanic(t, "child level mismatch", func() {
		m.MakeVNode(1, deep, m.VZero()) // child must be var 0
	})
}

func TestCleanupWithMatrixRoots(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(2))
	g := m.MakeGateDD(5, gateH, 2, PosControl(4))
	e, _ := m.FromAmplitudes(randomAmplitudes(5, rng))
	// garbage
	for i := 0; i < 10; i++ {
		m.MakeGateDD(5, gateT, i%5)
		_, _ = m.FromAmplitudes(randomAmplitudes(5, rng))
	}
	m.Cleanup([]VEdge{e}, []MEdge{g})
	// Kept roots must still work together.
	res := m.MulVec(g, e)
	if norm := m.Norm(res); math.Abs(norm-1) > 1e-9 {
		t.Errorf("norm after cleanup %v", norm)
	}
}

func TestClearCachesKeepsResultsCorrect(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(3))
	a, _ := m.FromAmplitudes(randomAmplitudes(4, rng))
	b, _ := m.FromAmplitudes(randomAmplitudes(4, rng))
	before := m.Add(a, b)
	m.ClearCaches()
	after := m.Add(a, b)
	if before.N != after.N || !approxEq(before.W.Complex(), after.W.Complex(), 1e-12) {
		t.Error("Add result changed after cache clear")
	}
}

func TestScaleEdgeCases(t *testing.T) {
	m := New()
	e := m.BasisState(2, 1)
	if !m.IsVZero(m.ScaleV(m.VZero(), 2)) {
		t.Error("scaling zero edge")
	}
	if !m.IsMZero(m.ScaleM(m.MZero(), 2)) {
		t.Error("scaling zero matrix edge")
	}
	if !m.IsVZero(m.NormalizeRootWeight(m.VZero())) {
		t.Error("normalizing zero edge")
	}
	tiny := m.ScaleV(e, 1e-13) // below interning tolerance → zero
	if !m.IsVZero(tiny) {
		t.Error("sub-tolerance scale did not collapse to zero")
	}
}

func TestAddMatAndScaleM(t *testing.T) {
	m := New()
	x := m.MakeGateDD(2, gateX, 0)
	negX := m.ScaleM(x, -1)
	if got := m.AddMat(x, negX); !m.IsMZero(got) {
		t.Error("X + (-X) != 0")
	}
	if got := m.AddMat(x, m.MZero()); got != x {
		t.Error("X + 0 != X")
	}
	double := m.AddMat(x, x)
	mat := m.ToMatrix(double, 2)
	if !approxEq(mat[0][1], 2, 1e-12) {
		t.Errorf("X + X [0][1] = %v", mat[0][1])
	}
}

func TestIdentityApplicationIsNoOp(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(4))
	e, _ := m.FromAmplitudes(randomAmplitudes(5, rng))
	id := m.Identity(5)
	res := m.MulVec(id, e)
	if res.N != e.N || !approxEq(res.W.Complex(), e.W.Complex(), 1e-12) {
		t.Error("identity application changed the state")
	}
}

func TestDeepCircuitNumericalStability(t *testing.T) {
	// 2000 gates of H/T cycling on 4 qubits: norm must stay 1 to high
	// precision thanks to root renormalization and weight interning.
	m := New()
	e := m.BasisState(4, 0)
	h := [4]MEdge{}
	tg := [4]MEdge{}
	for q := 0; q < 4; q++ {
		h[q] = m.MakeGateDD(4, gateH, q)
		tg[q] = m.MakeGateDD(4, gateT, q)
	}
	for i := 0; i < 2000; i++ {
		q := i % 4
		if i%2 == 0 {
			e = m.MulVec(h[q], e)
		} else {
			e = m.MulVec(tg[q], e)
		}
		e = m.NormalizeRootWeight(e)
	}
	if norm := m.Norm(e); math.Abs(norm-1) > 1e-8 {
		t.Errorf("norm drifted to %v after 2000 gates", norm)
	}
}
