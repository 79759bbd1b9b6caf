package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/verify"
)

func TestCancelAdjacentInverses(t *testing.T) {
	c := circuit.New(2, "cancel")
	c.H(0)
	c.H(0) // H·H = I
	c.T(1)
	c.Tdg(1) // T·T† = I
	c.S(0)
	out, stats := Optimize(c)
	if out.Len() != 1 {
		t.Fatalf("optimized to %d gates, want 1: %v", out.Len(), out.Gates())
	}
	if stats.CancelledPairs != 2 {
		t.Errorf("cancelled %d pairs, want 2", stats.CancelledPairs)
	}
	if out.Gates()[0].Name != "s" {
		t.Errorf("surviving gate %v", out.Gates()[0])
	}
}

func TestCancellationAcrossDisjointGates(t *testing.T) {
	c := circuit.New(3, "across")
	c.H(0)
	c.X(1) // disjoint — H pair still cancels through it
	c.H(0)
	out, _ := Optimize(c)
	if out.Len() != 1 || out.Gates()[0].Name != "x" {
		t.Fatalf("optimized gates: %v", out.Gates())
	}
}

func TestNoCancellationAcrossInterferingGate(t *testing.T) {
	c := circuit.New(2, "blocked")
	c.H(0)
	c.CX(0, 1) // shares qubit 0 — blocks the H pair
	c.H(0)
	out, _ := Optimize(c)
	if out.Len() != 3 {
		t.Fatalf("unsound cancellation: %v", out.Gates())
	}
}

func TestControlledInversePair(t *testing.T) {
	c := circuit.New(3, "cx")
	c.CX(2, 0)
	c.CX(2, 0)
	out, _ := Optimize(c)
	if out.Len() != 0 {
		t.Fatalf("CX pair not cancelled: %v", out.Gates())
	}
	// Different control polarity must NOT cancel.
	c2 := circuit.New(3, "mixed")
	c2.Apply("x", nil, 0, dd.PosControl(2))
	c2.Apply("x", nil, 0, dd.NegControl(2))
	out2, _ := Optimize(c2)
	if out2.Len() != 2 {
		t.Fatalf("polarity-mismatched pair cancelled: %v", out2.Gates())
	}
}

func TestRotationMerging(t *testing.T) {
	c := circuit.New(1, "rot")
	c.RZ(0.3, 0)
	c.RZ(0.5, 0)
	c.RZ(-0.8, 0) // total 0 → dropped entirely
	out, stats := Optimize(c)
	if out.Len() != 0 {
		t.Fatalf("rotations did not merge to identity: %v", out.Gates())
	}
	// The chain can resolve as merge+merge+drop or merge+cancel; either way
	// at least one merge happened and nothing remains.
	if stats.MergedGates == 0 {
		t.Errorf("stats %+v", stats)
	}
	c2 := circuit.New(1, "rot2")
	c2.Apply("p", []float64{0.25}, 0)
	c2.Apply("p", []float64{0.5}, 0)
	out2, _ := Optimize(c2)
	if out2.Len() != 1 || math.Abs(out2.Gates()[0].Params[0]-0.75) > 1e-12 {
		t.Fatalf("phase merge wrong: %v", out2.Gates())
	}
}

func TestIdentityRemoval(t *testing.T) {
	c := circuit.New(2, "ids")
	c.Apply("id", nil, 0)
	c.RX(0, 1)
	c.Apply("p", []float64{2 * math.Pi}, 0)
	c.X(1)
	out, stats := Optimize(c)
	if out.Len() != 1 || out.Gates()[0].Name != "x" {
		t.Fatalf("identities survived: %v", out.Gates())
	}
	if stats.DroppedGates != 3 {
		t.Errorf("dropped %d, want 3", stats.DroppedGates)
	}
}

func TestMeasurementActsAsBarrier(t *testing.T) {
	c := circuit.New(1, "meas")
	c.H(0)
	c.Measure(0)
	c.H(0)
	out, _ := Optimize(c)
	if out.Len() != 3 {
		t.Fatalf("cancellation across measurement: %v", out.Gates())
	}
}

func TestOptimizePreservesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(4)
		c := circuit.New(n, "rand")
		names := []string{"h", "x", "s", "sdg", "t", "tdg"}
		for k := 0; k < 30; k++ {
			switch rng.Intn(3) {
			case 0:
				c.Apply(names[rng.Intn(len(names))], nil, rng.Intn(n))
			case 1:
				c.RZ(math.Round(rng.Float64()*8)/4*math.Pi, rng.Intn(n))
			default:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.CX(a, b)
				}
			}
		}
		out, _ := Optimize(c)
		res, err := verify.Equivalent(c, out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("optimization broke equivalence (trial %d):\n in: %v\nout: %v",
				trial, c.Gates(), out.Gates())
		}
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	c := gen.RandomCliffordT(4, 60, 11)
	once, _ := Optimize(c)
	twice, stats := Optimize(once)
	if twice.Len() != once.Len() {
		t.Errorf("second pass changed length %d -> %d", once.Len(), twice.Len())
	}
	if stats.CancelledPairs+stats.MergedGates+stats.DroppedGates != 0 {
		t.Errorf("second pass did work: %+v", stats)
	}
}

func TestOptimizeShrinksRealCircuit(t *testing.T) {
	// QFT followed by its inverse collapses substantially (swap chains meet
	// their mirror images).
	n := 5
	c := gen.QFT(n)
	for _, g := range gen.InverseQFT(n).Gates() {
		c.Append(g)
	}
	out, _ := Optimize(c)
	if out.Len() >= c.Len() {
		t.Errorf("no shrink: %d -> %d gates", c.Len(), out.Len())
	}
	res, err := verify.Equivalent(c, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Error("QFT·IQFT optimization broke equivalence")
	}
}
