package sim

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestFidelityAcrossManagersMatchesImport: the fidelity between two runs'
// final states, each on its own manager, equals the same-manager fidelity
// after importing one state into the other's manager from its amplitudes.
// GHZ, basis-state and measured circuits put zero children on both sides.
func TestFidelityAcrossManagersMatchesImport(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(86))
	measured := circuit.New(n, "measured")
	measured.H(4)
	measured.CX(4, 1)
	measured.H(2)
	measured.Measure(2)
	basis := circuit.New(n, "basis")
	basis.X(0)
	basis.X(3)
	circs := []*circuit.Circuit{gen.GHZ(n), gen.QFT(n), basis, measured, randomCircuit(n, 40, rng), randomCircuit(n, 40, rng)}
	results := make([]*Result, len(circs))
	for i, c := range circs {
		res, err := Run(c, Options{MeasurementSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	for i, a := range results {
		for j, b := range results {
			ipBefore := a.Manager.Stats().IP
			got, err := Fidelity(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if i != j && a.Manager.Stats().IP != ipBefore {
				t.Errorf("%s vs %s: a cross-manager product touched the manager's own inner-product cache", circs[i].Name, circs[j].Name)
			}
			imported, err := a.Manager.FromAmplitudes(b.Manager.ToVector(b.Final, n))
			if err != nil {
				t.Fatal(err)
			}
			want := a.Manager.Fidelity(a.Final, imported)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s vs %s: cross-manager fidelity %.15f, imported %.15f", circs[i].Name, circs[j].Name, got, want)
			}
		}
	}
}

// TestFidelityRejectsIncomparableResults: states under different variable
// orders, over different widths or without a final state vector are refused
// instead of compared level by level.
func TestFidelityRejectsIncomparableResults(t *testing.T) {
	c := gen.QFT(4)
	plain, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStrategyByName("reorder", []byte(`{"order":"reversed"}`))
	if err != nil {
		t.Fatal(err)
	}
	reversed, err := Run(c, Options{Strategy: st})
	if err != nil {
		t.Fatal(err)
	}
	wider, err := Run(gen.QFT(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	den, err := Run(c, Options{Backend: BackendDensity})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		b    *Result
		want string
	}{
		{"reversed order", reversed, "variable orders"},
		{"wider", wider, "qubit"},
		{"density", den, "state vectors"},
	} {
		if _, err := Fidelity(plain, tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestFidelityPinsNoManager: once Fidelity returns, nothing of the second
// result's manager stays reachable from the first's: dropping the second
// result frees its manager and its nodes.
func TestFidelityPinsNoManager(t *testing.T) {
	a, err := Run(gen.QFT(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(gen.GHZ(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fidelity(a, b); err != nil {
		t.Fatal(err)
	}
	wm, wn := weak.Make(b.Manager), weak.Make(b.Final.N)
	b = nil
	runtime.GC()
	if wm.Value() != nil || wn.Value() != nil {
		t.Error("the compared result's manager or nodes survived it")
	}
	runtime.KeepAlive(a)
}

// TestRunAndCompareSharesMeasurementSeed: the exact reference draws the
// approximate run's measurement outcomes, so an exact "approximation" of a
// measured Bell pair matches its reference on every seed.
func TestRunAndCompareSharesMeasurementSeed(t *testing.T) {
	c := circuit.New(2, "bell-measured")
	c.H(1)
	c.CX(1, 0)
	c.Measure(0)
	outcomes := map[int]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		cmp, err := RunAndCompare(c, Options{Strategy: core.Exact{}, MeasurementSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		outcomes[cmp.Approx.Measurements[0].Outcome] = true
		if math.Abs(cmp.TrueFidelity-1) > 1e-12 {
			t.Errorf("seed %d: true fidelity %v, want 1", seed, cmp.TrueFidelity)
		}
	}
	if len(outcomes) != 2 {
		t.Fatal("seeds 1-6 drew one outcome only; the test is vacuous")
	}
}

// TestRunAndCompareRefusesDensity: the density backend has no final state
// vector to compare, which is an error, not a crash.
func TestRunAndCompareRefusesDensity(t *testing.T) {
	if _, err := RunAndCompare(gen.GHZ(3), Options{Backend: BackendDensity}); err == nil {
		t.Fatal("density comparison accepted")
	}
}
