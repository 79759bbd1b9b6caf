package verify

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

func TestIdenticalCircuitsEquivalent(t *testing.T) {
	c := gen.QFT(5)
	res, err := Equivalent(c, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Error("circuit not equivalent to itself")
	}
	if cmplx.Abs(res.Phase-1) > 1e-9 {
		t.Errorf("self-equivalence phase %v, want 1", res.Phase)
	}
}

func TestSwapDecompositionEquivalence(t *testing.T) {
	// swap via 3 CNOTs == swap via permutation gate.
	a := circuit.New(4, "swap-cx")
	a.SWAP(1, 3)
	b := circuit.New(4, "swap-perm")
	// Permutation on all 4 qubits swapping bits 1 and 3.
	perm := make([]int, 16)
	for x := range perm {
		b1 := x >> 1 & 1
		b3 := x >> 3 & 1
		y := x &^ (1<<1 | 1<<3)
		y |= b1<<3 | b3<<1
		perm[x] = y
	}
	b.Permutation(perm, 4)
	res, err := Equivalent(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Error("swap decomposition not recognized as equivalent")
	}
}

func TestGlobalPhaseEquivalence(t *testing.T) {
	// rz(π) and Z differ by the global phase e^{-iπ/2}.
	a := circuit.New(2, "rz")
	a.RZ(math.Pi, 0)
	b := circuit.New(2, "z")
	b.Z(0)
	res, err := Equivalent(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("rz(π) ≢ Z up to phase")
	}
	if math.Abs(cmplx.Abs(res.Phase)-1) > 1e-9 {
		t.Errorf("phase %v not unit", res.Phase)
	}
	if cmplx.Abs(res.Phase-1) < 1e-9 {
		t.Error("phase reported as exactly 1; expected a non-trivial global phase")
	}
}

func TestInequivalentCircuitsDetected(t *testing.T) {
	a := gen.QFT(4)
	b := gen.QFT(4)
	b.T(2) // sabotage
	res, err := Equivalent(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Error("sabotaged circuit reported equivalent")
	}
}

func TestQFTInverseCancellation(t *testing.T) {
	// QFT followed by its inverse is the identity: check against the empty
	// circuit.
	n := 5
	c := gen.QFT(n)
	for _, g := range gen.InverseQFT(n).Gates() {
		c.Append(&g)
	}
	empty := circuit.New(n, "empty")
	res, err := Equivalent(c, empty)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Error("QFT·QFT† not equivalent to identity")
	}
}

func TestCircuitInverseIsAdjoint(t *testing.T) {
	// c followed by c.Inverse() must be the identity for a gate soup.
	c := circuit.New(4, "soup")
	c.H(0)
	c.CX(0, 2)
	c.T(1)
	c.RY(0.7, 3)
	c.CP(0.3, 2, 1)
	c.SWAP(0, 3)
	inv, err := c.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	both := circuit.New(4, "both")
	for _, g := range c.Gates() {
		both.Append(&g)
	}
	for _, g := range inv.Gates() {
		both.Append(&g)
	}
	res, err := Equivalent(both, circuit.New(4, "empty"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Error("c·c† is not the identity")
	}
}

func TestMismatchedQubitCounts(t *testing.T) {
	if _, err := Equivalent(gen.GHZ(3), gen.GHZ(4)); err == nil {
		t.Error("mismatched registers accepted")
	}
}

func TestEquivalentTracksDDSize(t *testing.T) {
	c := gen.QFT(6)
	res, err := Equivalent(c, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDDSize < 6 {
		t.Errorf("max DD size %d suspiciously small", res.MaxDDSize)
	}
}
