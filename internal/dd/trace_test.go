package dd

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestMTraceMatchesDenseDiagonal(t *testing.T) {
	m := New()
	for n := 1; n <= 4; n++ {
		v, amps := randomState(t, m, n, rand.New(rand.NewSource(int64(n)*17)))
		rho := m.OuterProduct(v, v)
		var want complex128
		for i := range amps {
			want += amps[i] * cmplx.Conj(amps[i])
		}
		got := m.MTrace(rho)
		if cmplx.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: MTrace = %v, dense diagonal sum = %v", n, got, want)
		}
	}
	// Operators too: trace of a CX on 2 qubits is 2, of the identity 2^n.
	cx := m.MakeGateDD(2, [4]complex128{0, 1, 1, 0}, 0, PosControl(1))
	if got := m.MTrace(cx); cmplx.Abs(got-2) > 1e-12 {
		t.Errorf("Tr(CX) = %v, want 2", got)
	}
	for n := 1; n <= 5; n++ {
		if got := m.MTrace(m.Identity(n)); cmplx.Abs(got-complex(float64(int(1)<<uint(n)), 0)) > 1e-12 {
			t.Errorf("Tr(I_%d) = %v, want %d", n, got, 1<<uint(n))
		}
	}
	if got := m.MTrace(m.MZero()); got != 0 {
		t.Errorf("Tr(0) = %v", got)
	}
}

func TestOuterProductMatchesDense(t *testing.T) {
	m := New()
	for n := 1; n <= 3; n++ {
		a, aAmps := randomState(t, m, n, rand.New(rand.NewSource(int64(n)*31)))
		b, bAmps := randomState(t, m, n, rand.New(rand.NewSource(int64(n)*31+7)))
		got := m.ToMatrix(m.OuterProduct(a, b), n)
		for r := range aAmps {
			for c := range bAmps {
				want := aAmps[r] * cmplx.Conj(bAmps[c])
				if cmplx.Abs(got[r][c]-want) > 1e-9 {
					t.Fatalf("n=%d: |a⟩⟨b|[%d][%d] = %v, want %v", n, r, c, got[r][c], want)
				}
			}
		}
	}
}

func TestOuterProductPureStateIsProjector(t *testing.T) {
	m := New()
	v, _ := randomState(t, m, 3, rand.New(rand.NewSource(99)))
	rho := m.OuterProduct(v, v)
	// ρ² = ρ for a pure-state projector, and Tr ρ = 1.
	rho2 := m.MulMat(rho, rho)
	if tr := m.MTrace(rho); cmplx.Abs(tr-1) > 1e-9 {
		t.Errorf("Tr ρ = %v, want 1", tr)
	}
	a, b := m.ToMatrix(rho, 3), m.ToMatrix(rho2, 3)
	for r := range a {
		for c := range a[r] {
			if cmplx.Abs(a[r][c]-b[r][c]) > 1e-9 {
				t.Fatalf("ρ²[%d][%d] = %v != ρ[%d][%d] = %v", r, c, b[r][c], r, c, a[r][c])
			}
		}
	}
}

func TestCountMMatchesCountMNodes(t *testing.T) {
	m := New()
	v, _ := randomState(t, m, 4, rand.New(rand.NewSource(5)))
	rho := m.OuterProduct(v, v)
	if got, want := m.CountM(rho), countMNodes(rho); got != want {
		t.Errorf("CountM = %d, countMNodes = %d", got, want)
	}
	cx := m.MakeGateDD(3, [4]complex128{0, 1, 1, 0}, 1, PosControl(0))
	if got, want := m.CountM(cx), countMNodes(cx); got != want {
		t.Errorf("CountM(CX) = %d, countMNodes = %d", got, want)
	}
	if got := m.CountM(m.MZero()); got != 0 {
		t.Errorf("CountM(0) = %d", got)
	}
}

// countMNodes returns the number of distinct non-terminal nodes reachable
// from the operation edge e: the map-based oracle CountM is checked against.
func countMNodes(e MEdge) int {
	seen := make(map[*MNode]struct{})
	var walk func(n *MNode)
	walk = func(n *MNode) {
		if n == nil || n.IsTerminal() {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		for i := 0; i < 4; i++ {
			walk(n.E[i].N)
		}
	}
	walk(e.N)
	return len(seen)
}
