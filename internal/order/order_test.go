package order

import (
	"encoding/json"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
)

func pairsCircuit(n int) *circuit.Circuit {
	c := circuit.New(n, "pairs")
	for i := 0; i < n/2; i++ {
		c.H(i)
		c.CX(i, i+n/2)
	}
	return c
}

func isPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, l := range p {
		if l < 0 || l >= len(p) || seen[l] {
			return false
		}
		seen[l] = true
	}
	return true
}

func TestComputeBasics(t *testing.T) {
	c := pairsCircuit(6)
	for _, name := range Names() {
		perm, err := Compute(name, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(perm) != 6 || !isPerm(perm) {
			t.Fatalf("%s: not a permutation: %v", name, perm)
		}
	}
	id, _ := Compute(Identity, c)
	rev, _ := Compute(Reversed, c)
	for q := range id {
		if id[q] != q {
			t.Fatalf("identity[%d] = %d", q, id[q])
		}
		if rev[q] != 5-q {
			t.Fatalf("reversed[%d] = %d", q, rev[q])
		}
	}
	if _, err := Compute("bogus", c); err == nil {
		t.Fatal("unknown ordering accepted")
	}
}

// TestScoredPlacesPartnersAdjacent is the heuristic's core property on the
// pairs workload: each (i, i+n/2) couple must land on adjacent levels.
func TestScoredPlacesPartnersAdjacent(t *testing.T) {
	const n = 8
	perm, err := Compute(Scored, pairsCircuit(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		d := perm[i] - perm[i+n/2]
		if d != 1 && d != -1 {
			t.Fatalf("scored order %v: qubits %d and %d are %d levels apart", perm, i, i+n/2, d)
		}
	}
}

func TestScoredDeterministic(t *testing.T) {
	a, _ := Compute(Scored, pairsCircuit(8))
	b, _ := Compute(Scored, pairsCircuit(8))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scored ordering not deterministic: %v vs %v", a, b)
		}
	}
}

func TestPermGateForcesIdentity(t *testing.T) {
	c := circuit.New(3, "perm")
	c.Permutation([]int{1, 0, 3, 2}, 2)
	if !HasPermGate(c) {
		t.Fatal("HasPermGate missed the permutation gate")
	}
	if _, err := Compute(Scored, c); err == nil {
		t.Fatal("scored ordering accepted a permutation-gate circuit")
	}
	if _, err := Compute(Identity, c); err != nil {
		t.Fatalf("identity must stay allowed: %v", err)
	}
}

func TestReorderStrategyRegistry(t *testing.T) {
	st, err := core.NewStrategyByName("reorder", json.RawMessage(
		`{"order":"scored","sift":true,"sift_threshold":512,"inner":"memory","inner_params":{"threshold":1024,"round_fidelity":0.9}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Init(10, nil); err != nil {
		t.Fatal(err)
	}
	ro, ok := st.(core.Reorderer)
	if !ok {
		t.Fatal("reorder strategy does not implement core.Reorderer")
	}
	pol := ro.ReorderPolicy()
	if pol.Static != Scored || !pol.Sift || pol.SiftThreshold != 512 {
		t.Fatalf("policy = %+v", pol)
	}
	if got := st.Name(); got != "reorder(scored+sift)+memory-driven" {
		t.Fatalf("Name() = %q", got)
	}

	// The factory only decodes; Init rejects a bad ordering name.
	if st, err := core.NewStrategyByName("reorder", json.RawMessage(`{"order":"nope"}`)); err != nil || st.Init(10, nil) == nil {
		t.Fatalf("bad ordering name: build error %v, or Init accepted it", err)
	}
	if _, err := core.NewStrategyByName("reorder", json.RawMessage(`{"inner":"reorder"}`)); err == nil {
		t.Fatal("self-nesting accepted")
	}
	if _, err := core.NewStrategyByName("reorder", json.RawMessage(`{"inner":"memory","inner_params":{"threshold":-3}}`)); err != nil {
		t.Fatalf("inner construction should defer validation to Init: %v", err)
	}
}

func TestReorderStrategyDefaults(t *testing.T) {
	st, err := core.NewStrategyByName("reorder", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The zero policy runs the identity order without sifting.
	if pol := st.(core.Reorderer).ReorderPolicy(); pol != (core.ReorderPolicy{}) {
		t.Fatalf("default policy = %+v", pol)
	}
	if got := st.Name(); got != "reorder(identity)+exact" {
		t.Fatalf("default name = %q", got)
	}
	if err := st.Init(1, nil); err != nil {
		t.Fatal(err)
	}
}
