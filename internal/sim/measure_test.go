package sim

import (
	"math"
	"testing"

	"repro/internal/circuit"
)

func TestMidCircuitMeasurementGHZ(t *testing.T) {
	// Measure one qubit of a GHZ state mid-circuit: the remaining qubits
	// must collapse to agree with the outcome.
	n := 5
	sawOutcome := map[int]bool{}
	for seed := int64(0); seed < 20; seed++ {
		c := circuit.New(n, "ghz-measure")
		c.H(n - 1)
		for q := n - 1; q > 0; q-- {
			c.CX(q, q-1)
		}
		c.Measure(0)
		res, err := Run(c, Options{MeasurementSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Measurements) != 1 {
			t.Fatalf("%d measurements recorded", len(res.Measurements))
		}
		out := res.Measurements[0].Outcome
		sawOutcome[out] = true
		want := uint64(0)
		if out == 1 {
			want = 1<<uint(n) - 1
		}
		if p := res.Manager.Probability(res.Final, want, n); math.Abs(p-1) > 1e-9 {
			t.Fatalf("seed %d: GHZ collapse broken: P(|%0*b⟩) = %v", seed, n, want, p)
		}
	}
	if !sawOutcome[0] || !sawOutcome[1] {
		t.Error("20 seeds produced only one measurement outcome")
	}
}

func TestMeasurementDeterministicPerSeed(t *testing.T) {
	c := circuit.New(3, "m")
	c.H(0)
	c.H(1)
	c.Measure(0)
	c.Measure(1)
	run := func() []Measurement {
		res, err := Run(c, Options{MeasurementSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res.Measurements
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("measurement %d differs between identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestResetGate(t *testing.T) {
	// Prepare |+⟩, reset, qubit must be |0⟩ regardless of the outcome.
	for seed := int64(0); seed < 10; seed++ {
		c := circuit.New(2, "reset")
		c.H(0)
		c.Reset(0)
		res, err := Run(c, Options{MeasurementSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if p := res.Manager.ProbabilityOne(res.Final, 0, 2); p > 1e-9 {
			t.Fatalf("seed %d: qubit not reset: P(1) = %v", seed, p)
		}
	}
}

func TestTeleportationCircuit(t *testing.T) {
	// One-qubit teleportation with mid-circuit measurement and classically
	// controlled corrections unrolled into measurement + conditional gates:
	// since the IR has no classical control, verify the statistics instead:
	// teleporting |ψ⟩ = ry(0.8)|0⟩ from qubit 0 to qubit 2 and checking the
	// marginal of qubit 2 over many seeds. With corrections omitted, the
	// outcome-conditioned states differ, but measuring in the computational
	// basis after projecting corrections is equivalent to applying X^m1 Z^m0
	// — here we apply the corrections via the recorded outcomes.
	theta := 0.8
	wantP1 := math.Pow(math.Sin(theta/2), 2)
	var sum float64
	const trials = 40
	for seed := int64(0); seed < trials; seed++ {
		c := circuit.New(3, "teleport")
		c.RY(theta, 0) // the state to teleport
		// Bell pair between 1 and 2.
		c.H(1)
		c.CX(1, 2)
		// Bell measurement on 0,1.
		c.CX(0, 1)
		c.H(0)
		c.Measure(0)
		c.Measure(1)
		res, err := Run(c, Options{MeasurementSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		m0 := res.Measurements[0].Outcome
		m1 := res.Measurements[1].Outcome
		state := res.Final
		if m1 == 1 {
			x := res.Manager.MakeGateDD(3, [4]complex128{0, 1, 1, 0}, 2)
			state = res.Manager.MulVec(x, state)
		}
		if m0 == 1 {
			z := res.Manager.MakeGateDD(3, [4]complex128{1, 0, 0, -1}, 2)
			state = res.Manager.MulVec(z, state)
		}
		sum += res.Manager.ProbabilityOne(state, 2, 3)
	}
	got := sum / trials
	// Every individual teleportation is exact, so the mean is exact too.
	if math.Abs(got-wantP1) > 1e-9 {
		t.Errorf("teleported marginal P(1) = %v, want %v", got, wantP1)
	}
}

func TestMeasureInverseRejected(t *testing.T) {
	c := circuit.New(2, "m")
	c.H(0)
	c.Measure(0)
	if _, err := c.Inverse(); err == nil {
		t.Error("circuit with measurement inverted")
	}
}
