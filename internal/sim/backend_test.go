package sim

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/gen"
)

// The entangled-pairs workload comes from pairsCircuit in
// differential_test.go — the same circuit the approximation differential
// suite uses.

func TestBackendValidation(t *testing.T) {
	if _, err := Run(gen.GHZ(3), Options{Backend: "tensor"}); err == nil {
		t.Error("unknown backend accepted")
	}
	_, err := Run(gen.GHZ(3), Options{
		Backend:  BackendDensity,
		Strategy: &core.MemoryDriven{Threshold: 16, RoundFidelity: 0.97},
	})
	if err == nil {
		t.Error("density backend accepted an approximation strategy")
	}
	if _, err := Run(gen.GHZ(3), Options{Noise: &NoiseModel{Kind: "banana", P: 0.1}}); err == nil {
		t.Error("unknown noise kind accepted")
	}
	if _, err := Run(gen.GHZ(3), Options{Noise: &NoiseModel{P: 1.5}}); err == nil {
		t.Error("out-of-range noise strength accepted")
	}
}

// TestNoiselessDensityMatchesStatevector is half of the tentpole's
// differential proof: with no noise, evolving ρ = |ψ⟩⟨ψ| through U ρ U†
// must reproduce the statevector backend's measurement probabilities.
func TestNoiselessDensityMatchesStatevector(t *testing.T) {
	workloads := []*circuit.Circuit{
		gen.QFT(6),
		pairsCircuit(6),
		gen.GHZ(6),
		gen.Grover(5, 0b10110, 2),
	}
	for _, c := range workloads {
		sv, err := Run(c, Options{})
		if err != nil {
			t.Fatalf("%s statevector: %v", c.Name, err)
		}
		den, err := Run(c, Options{Backend: BackendDensity})
		if err != nil {
			t.Fatalf("%s density: %v", c.Name, err)
		}
		if den.Backend != BackendDensity || den.Density == nil {
			t.Fatalf("%s: density result not populated (backend %q)", c.Name, den.Backend)
		}
		if math.Abs(den.Purity-1) > 1e-9 {
			t.Errorf("%s: noiseless purity = %v, want 1", c.Name, den.Purity)
		}
		for idx := uint64(0); idx < 1<<uint(c.NumQubits); idx++ {
			want := sv.Manager.Probability(sv.Final, idx, c.NumQubits)
			got := den.Density.Probability(idx)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: P(|%0*b⟩) density %v vs statevector %v",
					c.Name, c.NumQubits, idx, got, want)
			}
		}
	}
}

// densityFidelity runs the circuit noiselessly (statevector) and then
// noisily (density), each on its own manager, and returns ⟨ideal|ρ|ideal⟩ —
// the exact value the trajectory estimator converges to. The ideal state is
// rebuilt in the density run's manager from its amplitudes.
func densityFidelity(t *testing.T, c *circuit.Circuit, noise NoiseModel) float64 {
	t.Helper()
	ideal, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	den, err := Run(c, Options{Backend: BackendDensity, Noise: &noise})
	if err != nil {
		t.Fatal(err)
	}
	psi, err := den.Manager.FromAmplitudes(ideal.Manager.ToVector(ideal.Final, c.NumQubits))
	if err != nil {
		t.Fatal(err)
	}
	return den.Density.FidelityPure(psi)
}

// TestTrajectoryConvergesToDensity is the headline differential proof:
// trajectory-averaged fidelity converges to the density-matrix answer, for a
// mixed-unitary channel (depolarizing, pre-sampled branch probabilities) and
// a non-unitary one (amplitude damping, quantum-jump sampling), on the QFT
// and pairs workloads. The tolerance is statistical: the per-trajectory
// fidelities lie in [0, 1], so the Monte-Carlo mean carries a standard error
// estimated from the sample variance; five standard errors (plus a small
// absolute floor) makes the seeded test robust without hiding real bias.
func TestTrajectoryConvergesToDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo convergence test")
	}
	workloads := []*circuit.Circuit{gen.QFT(5), pairsCircuit(6)}
	noises := []NoiseModel{
		{Kind: density.Depolarizing, P: 0.02, Seed: 11},
		{Kind: density.AmplitudeDamping, P: 0.03, Seed: 23},
	}
	const trajectories = 240
	for _, c := range workloads {
		for _, noise := range noises {
			exact := densityFidelity(t, c, noise)

			ideal, err := Run(c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var sum, sumSq float64
			for k := 0; k < trajectories; k++ {
				tn := noise
				tn.Seed = noise.Seed + int64(k)*7919
				res, err := Run(c, Options{Noise: &tn})
				if err != nil {
					t.Fatal(err)
				}
				f, err := Fidelity(ideal, res)
				if err != nil {
					t.Fatal(err)
				}
				sum += f
				sumSq += f * f
			}
			mean := sum / trajectories
			variance := sumSq/trajectories - mean*mean
			if variance < 0 {
				variance = 0
			}
			stderr := math.Sqrt(variance / trajectories)
			tol := 5*stderr + 2e-3
			if math.Abs(mean-exact) > tol {
				t.Errorf("%s %s p=%v: trajectory mean %v vs density %v (tolerance %v)",
					c.Name, noise.Kind, noise.P, mean, exact, tol)
			}
			if exact > 0.999 {
				t.Errorf("%s %s: density fidelity %v — noise did not engage", c.Name, noise.Kind, exact)
			}
		}
	}
}

// TestDensityCleanupKeepsRoots forces mid-run node-pool sweeps on the
// density backend and checks the run still matches an unswept one — the
// density root, gate DDs, and lifted channel DDs must all be mark roots.
func TestDensityCleanupKeepsRoots(t *testing.T) {
	c := gen.QFT(6)
	noise := NoiseModel{Kind: density.Depolarizing, P: 0.01}
	ref, err := Run(c, Options{Backend: BackendDensity, Noise: &noise})
	if err != nil {
		t.Fatal(err)
	}
	swept, err := Run(c, Options{
		Backend:          BackendDensity,
		Noise:            &noise,
		cleanupHighWater: 64, // far below any real occupancy: sweep almost every gate
	})
	if err != nil {
		t.Fatal(err)
	}
	if swept.Cleanups == 0 {
		t.Fatal("no cleanups triggered; test is vacuous")
	}
	for idx := uint64(0); idx < 1<<6; idx++ {
		if a, b := ref.Density.Probability(idx), swept.Density.Probability(idx); math.Abs(a-b) > 1e-12 {
			t.Fatalf("P(%d) diverged under cleanup: %v vs %v", idx, a, b)
		}
	}
	if math.Abs(ref.Purity-swept.Purity) > 1e-12 {
		t.Errorf("purity diverged under cleanup: %v vs %v", ref.Purity, swept.Purity)
	}
}

// TestDensityObserverEvents checks OnChannel fires once per touched qubit
// per gate on the density backend, and that trajectory jumps are reported
// with their sampled branch.
func TestDensityObserverEvents(t *testing.T) {
	c := pairsCircuit(4)
	noise := NoiseModel{Kind: density.Depolarizing, P: 0.05}
	obs := &countingObserver{}
	res, err := Run(c, Options{Backend: BackendDensity, Noise: &noise, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	wantApps := 0
	for _, g := range c.Gates() {
		wantApps += len(gateTouches(g))
	}
	if obs.channels != wantApps || res.ChannelApplications != wantApps {
		t.Errorf("channel events: observer %d, result %d, want %d", obs.channels, res.ChannelApplications, wantApps)
	}
	if obs.lastChannel.Branch != -1 || obs.lastChannel.Kind != string(density.Depolarizing) {
		t.Errorf("density channel event = %+v, want branch -1 kind depolarizing", obs.lastChannel)
	}

	// Trajectory at p=1: every touched qubit jumps (branch ≥ 1).
	obs2 := &countingObserver{}
	traj, err := Run(c, Options{
		Noise:    &NoiseModel{Kind: density.BitFlip, P: 1, Seed: 3},
		Observer: obs2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs2.channels != wantApps || traj.ChannelApplications != wantApps {
		t.Errorf("jump events at p=1: observer %d, result %d, want %d", obs2.channels, traj.ChannelApplications, wantApps)
	}
	if obs2.lastChannel.Branch < 1 {
		t.Errorf("trajectory jump event branch = %d, want >= 1", obs2.lastChannel.Branch)
	}
}

// TestDensityMeasurement runs mid-circuit measurement and reset on the
// density backend and checks the collapsed state is consistent.
func TestDensityMeasurement(t *testing.T) {
	c := circuit.New(2, "bell_measured")
	c.H(0)
	c.CX(0, 1)
	c.Measure(0)
	for seed := int64(0); seed < 6; seed++ {
		res, err := Run(c, Options{Backend: BackendDensity, MeasurementSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Measurements) != 1 {
			t.Fatalf("recorded %d measurements", len(res.Measurements))
		}
		bit := res.Measurements[0].Outcome
		// Post-measurement the pair is perfectly correlated: P(bb) = 1.
		idx := uint64(bit) | uint64(bit)<<1
		if p := res.Density.Probability(idx); math.Abs(p-1) > 1e-9 {
			t.Errorf("seed %d: P(|%d%d⟩) = %v after measuring %d", seed, bit, bit, p, bit)
		}
		if math.Abs(res.Purity-1) > 1e-9 {
			t.Errorf("seed %d: purity after projective measurement = %v", seed, res.Purity)
		}
	}
}

// TestDensitySessionStepping drives the density backend through the
// resumable-session API rather than Run.
func TestDensitySessionStepping(t *testing.T) {
	c := gen.QFT(5)
	noise := NoiseModel{Kind: density.Dephasing, P: 0.02}
	ref, err := Run(c, Options{Backend: BackendDensity, Noise: &noise})
	if err != nil {
		t.Fatal(err)
	}
	ses, err := NewSession(c, Options{Backend: BackendDensity, Noise: &noise})
	if err != nil {
		t.Fatal(err)
	}
	if ses.Density() == nil {
		t.Fatal("session has no density state")
	}
	if _, err := ses.StepN(3); err != nil {
		t.Fatal(err)
	}
	got, err := ses.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for idx := uint64(0); idx < 1<<5; idx++ {
		if a, b := ref.Density.Probability(idx), got.Density.Probability(idx); math.Abs(a-b) > 1e-12 {
			t.Fatalf("P(%d): run %v vs session %v", idx, a, b)
		}
	}
}
