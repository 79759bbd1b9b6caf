package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dense"
)

func TestAddMatchesDense(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		va := randomSparseAmplitudes(n, 0.5, rng)
		vb := randomSparseAmplitudes(n, 0.5, rng)
		ea, err := m.FromAmplitudes(va)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := m.FromAmplitudes(vb)
		if err != nil {
			t.Fatal(err)
		}
		sum := m.Add(ea, eb)
		got := m.ToVector(sum, n)
		want := make([]complex128, len(va))
		for i := range want {
			want[i] = va[i] + vb[i]
		}
		vecApproxEq(t, got, want, 1e-9, "Add")
	}
}

func TestAddZeroIdentity(t *testing.T) {
	m := New()
	e := m.BasisState(3, 2)
	if got := m.Add(e, m.VZero()); got != e {
		t.Error("a + 0 != a")
	}
	if got := m.Add(m.VZero(), e); got != e {
		t.Error("0 + a != a")
	}
}

func TestAddCancellation(t *testing.T) {
	m := New()
	e := m.BasisState(3, 2)
	neg := m.ScaleV(e, -1)
	if got := m.Add(e, neg); !m.IsVZero(got) {
		t.Errorf("a + (-a) = %v, want zero edge", got)
	}
}

func TestAddCommutative(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(5)
		ea, _ := m.FromAmplitudes(randomSparseAmplitudes(n, 0.4, rng))
		eb, _ := m.FromAmplitudes(randomSparseAmplitudes(n, 0.4, rng))
		ab := m.Add(ea, eb)
		ba := m.Add(eb, ea)
		if ab.N != ba.N || !approxEq(ab.W.Complex(), ba.W.Complex(), 1e-9) {
			t.Fatalf("Add not commutative structurally: %v vs %v", ab, ba)
		}
	}
}

func TestGateDDMatchesDense(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(12))
	mats := map[string][4]complex128{
		"X": gateX, "Y": gateY, "Z": gateZ, "H": gateH, "S": gateS, "T": gateT,
	}
	for name, u := range mats {
		for n := 1; n <= 4; n++ {
			for target := 0; target < n; target++ {
				vec := randomAmplitudes(n, rng)
				e, _ := m.FromAmplitudes(vec)
				g := m.MakeGateDD(n, u, target)
				res := m.MulVec(g, e)

				ds, _ := dense.FromAmplitudes(append([]complex128(nil), vec...))
				ds.ApplyGate(u, target)

				vecApproxEq(t, m.ToVector(res, n), ds.Amp, 1e-9, name)
			}
		}
	}
}

func TestControlledGatesMatchDense(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		gates := randomGateSeq(n, 1, rng)
		g := gates[0]
		vec := randomAmplitudes(n, rng)
		e, _ := m.FromAmplitudes(vec)
		gd := m.MakeGateDD(n, g.u, g.target, g.controls...)
		res := m.MulVec(gd, e)

		ds, _ := dense.FromAmplitudes(append([]complex128(nil), vec...))
		ds.ApplyGate(g.u, g.target, toDenseControls(g.controls)...)

		vecApproxEq(t, m.ToVector(res, n), ds.Amp, 1e-9, "controlled gate")
	}
}

func TestCNOTTruthTable(t *testing.T) {
	m := New()
	// CNOT with control qubit 1, target qubit 0 on 2 qubits.
	cx := m.MakeGateDD(2, gateX, 0, PosControl(1))
	cases := map[uint64]uint64{
		0b00: 0b00, 0b01: 0b01, 0b10: 0b11, 0b11: 0b10,
	}
	for in, want := range cases {
		res := m.MulVec(cx, m.BasisState(2, in))
		if p := m.Probability(res, want, 2); math.Abs(p-1) > 1e-12 {
			t.Errorf("CNOT|%02b⟩: P(|%02b⟩) = %v, want 1", in, want, p)
		}
	}
}

func TestNegativeControl(t *testing.T) {
	m := New()
	cx := m.MakeGateDD(2, gateX, 0, NegControl(1))
	// Fires when qubit 1 is |0⟩.
	res := m.MulVec(cx, m.BasisState(2, 0b00))
	if p := m.Probability(res, 0b01, 2); math.Abs(p-1) > 1e-12 {
		t.Errorf("neg-control did not fire on |00⟩: %v", p)
	}
	res = m.MulVec(cx, m.BasisState(2, 0b10))
	if p := m.Probability(res, 0b10, 2); math.Abs(p-1) > 1e-12 {
		t.Errorf("neg-control fired on |10⟩: %v", p)
	}
}

func TestToffoliViaTwoControls(t *testing.T) {
	m := New()
	ccx := m.MakeGateDD(3, gateX, 0, PosControl(1), PosControl(2))
	for in := uint64(0); in < 8; in++ {
		want := in
		if in&0b110 == 0b110 {
			want = in ^ 1
		}
		res := m.MulVec(ccx, m.BasisState(3, in))
		if p := m.Probability(res, want, 3); math.Abs(p-1) > 1e-12 {
			t.Errorf("CCX|%03b⟩: P(|%03b⟩) = %v, want 1", in, want, p)
		}
	}
}

func TestPaperExample3(t *testing.T) {
	// Example 3: CNOT·(H⊗I)|00⟩ = (|00⟩+|11⟩)/√2. In the paper the Hadamard
	// acts on the "first qubit" (the high/control wire).
	m := New()
	e := m.BasisState(2, 0)
	h := m.MakeGateDD(2, gateH, 1)
	e = m.MulVec(h, e)
	cx := m.MakeGateDD(2, gateX, 0, PosControl(1))
	e = m.MulVec(cx, e)
	want := []complex128{complex(1/math.Sqrt2, 0), 0, 0, complex(1/math.Sqrt2, 0)}
	vecApproxEq(t, m.ToVector(e, 2), want, 1e-12, "Example 3 Bell state")
}

func TestRandomCircuitsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 15; trial++ {
		m := New()
		n := 2 + rng.Intn(6)
		depth := 5 + rng.Intn(30)
		gates := randomGateSeq(n, depth, rng)

		e := m.BasisState(n, 0)
		ds := dense.NewState(n)
		for _, g := range gates {
			gd := m.MakeGateDD(n, g.u, g.target, g.controls...)
			e = m.MulVec(gd, e)
			e = m.NormalizeRootWeight(e)
			ds.ApplyGate(g.u, g.target, toDenseControls(g.controls)...)
		}
		// Global phase may differ after root renormalization.
		vecApproxEqUpToPhase(t, m.ToVector(e, n), ds.Amp, 1e-7, "random circuit")
		if norm := m.Norm(e); math.Abs(norm-1) > 1e-9 {
			t.Fatalf("norm after circuit = %v", norm)
		}
	}
}

func TestMulMatComposition(t *testing.T) {
	// (A·B)|ψ⟩ == A·(B|ψ⟩)
	m := New()
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		ga := randomGateSeq(n, 1, rng)[0]
		gb := randomGateSeq(n, 1, rng)[0]
		A := m.MakeGateDD(n, ga.u, ga.target, ga.controls...)
		B := m.MakeGateDD(n, gb.u, gb.target, gb.controls...)
		AB := m.MulMat(A, B)

		vec := randomAmplitudes(n, rng)
		e, _ := m.FromAmplitudes(vec)
		direct := m.MulVec(AB, e)
		stepwise := m.MulVec(A, m.MulVec(B, e))
		vecApproxEq(t, m.ToVector(direct, n), m.ToVector(stepwise, n), 1e-9, "MulMat")
	}
}

func TestIdentityDD(t *testing.T) {
	m := New()
	for n := 1; n <= 5; n++ {
		id := m.Identity(n)
		mat := m.ToMatrix(id, n)
		for r := range mat {
			for c := range mat[r] {
				want := complex128(0)
				if r == c {
					want = 1
				}
				if !approxEq(mat[r][c], want, 1e-12) {
					t.Fatalf("Identity(%d)[%d][%d] = %v", n, r, c, mat[r][c])
				}
			}
		}
		if got := CountMNodes(id); got != n {
			t.Errorf("Identity(%d) has %d nodes, want %d", n, got, n)
		}
	}
}

func TestFromToMatrixRoundTrip(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(16))
	for n := 1; n <= 4; n++ {
		dim := 1 << uint(n)
		mat := make([][]complex128, dim)
		for r := range mat {
			mat[r] = make([]complex128, dim)
			for c := range mat[r] {
				if rng.Float64() < 0.3 {
					mat[r][c] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}
		}
		e, err := m.FromMatrix(mat)
		if err != nil {
			t.Fatal(err)
		}
		got := m.ToMatrix(e, n)
		for r := range mat {
			vecApproxEq(t, got[r], mat[r], 1e-9, "matrix round trip")
		}
	}
}

func TestConjugateTranspose(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(3)
		g := randomGateSeq(n, 1, rng)[0]
		A := m.MakeGateDD(n, g.u, g.target, g.controls...)
		Adag := m.ConjugateTranspose(A)
		// A·A† should be the identity for unitary gates.
		prod := m.MulMat(A, Adag)
		mat := m.ToMatrix(prod, n)
		for r := range mat {
			for c := range mat[r] {
				want := complex128(0)
				if r == c {
					want = 1
				}
				if !approxEq(mat[r][c], want, 1e-9) {
					t.Fatalf("A·A† not identity at [%d][%d]: %v", r, c, mat[r][c])
				}
			}
		}
	}
}

// denseOperator is the 2^n×2^n matrix of a lifted single-qubit operator u,
// built by applying u to every basis state with internal/dense.
func denseOperator(n int, u [4]complex128, target int, controls []Control) [][]complex128 {
	dim := 1 << n
	mat := make([][]complex128, dim)
	for r := range mat {
		mat[r] = make([]complex128, dim)
	}
	for c := 0; c < dim; c++ {
		col := dense.NewBasisState(n, uint64(c))
		col.ApplyGate(u, target, toDenseControls(controls)...)
		for r, a := range col.Amp {
			mat[r][c] = a
		}
	}
	return mat
}

// TestConjugateTransposeMatchesDense checks the memoized adjoint entry by
// entry against the dense adjoint, for lifted 1-qubit gates, controlled
// (2-qubit) gates and a non-unitary Kraus operator, at every target of
// n ≤ 6 qubits, on one manager so the memo is reused across calls. A
// Cleanup after each case recycles the nodes, so an entry left over from an
// earlier call would alias a different node.
func TestConjugateTransposeMatchesDense(t *testing.T) {
	m := New()
	s := 1 / math.Sqrt2
	hadamard := [4]complex128{complex(s, 0), complex(s, 0), complex(s, 0), complex(-s, 0)}
	tGate := [4]complex128{1, 0, 0, cmplx.Exp(complex(0, math.Pi/4))}
	damping := [4]complex128{0, complex(math.Sqrt(0.3), 0), 0, 0} // amplitude-damping K1, γ = 0.3
	type operator struct {
		name     string
		u        [4]complex128
		controls []Control
	}
	for n := 1; n <= 6; n++ {
		for target := 0; target < n; target++ {
			cases := []operator{{"h", hadamard, nil}, {"kraus", damping, nil}}
			if n > 1 {
				c := (target + 1) % n
				cases = append(cases,
					operator{"ct", tGate, []Control{PosControl(c)}},
					operator{"neg-ch", hadamard, []Control{{Qubit: c, Positive: false}}})
			}
			for _, tc := range cases {
				A := m.MakeGateDD(n, tc.u, target, tc.controls...)
				got := m.ToMatrix(m.ConjugateTranspose(A), n)
				want := denseOperator(n, tc.u, target, tc.controls)
				for r := range got {
					for c := range got[r] {
						if w := cmplx.Conj(want[c][r]); !approxEq(got[r][c], w, 1e-12) {
							t.Fatalf("n=%d target=%d %s: adjoint[%d][%d] = %v, want %v",
								n, target, tc.name, r, c, got[r][c], w)
						}
					}
				}
				m.Cleanup(nil, nil)
			}
		}
	}
}

func TestGatePreservesNorm(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		vec := randomAmplitudes(n, rng)
		e, _ := m.FromAmplitudes(vec)
		g := randomGateSeq(n, 1, rng)[0]
		gd := m.MakeGateDD(n, g.u, g.target, g.controls...)
		res := m.MulVec(gd, e)
		if norm := m.Norm(res); math.Abs(norm-1) > 1e-9 {
			t.Fatalf("norm after unitary = %v", norm)
		}
	}
}
