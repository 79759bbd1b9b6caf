package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestZeroNoiseIsExact(t *testing.T) {
	res, err := Run(gen.GHZ(5), Options{Noise: &NoiseModel{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChannelApplications != 0 {
		t.Errorf("%d errors injected at p=0", res.ChannelApplications)
	}
	if p := res.Manager.Probability(res.Final, 0, 5); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("GHZ P(|00000⟩) = %v", p)
	}
}

func TestNoiseValidation(t *testing.T) {
	if _, err := Run(gen.GHZ(3), Options{Noise: &NoiseModel{P: 1.5}}); err == nil {
		t.Error("p > 1 accepted")
	}
	if _, err := Run(gen.GHZ(3), Options{Noise: &NoiseModel{P: -0.1}}); err == nil {
		t.Error("p < 0 accepted")
	}
	if _, err := TrajectoryFidelity(gen.GHZ(3), NoiseModel{P: 0.01}, 0); err == nil {
		t.Error("zero trajectories accepted")
	}
}

// TestParseNoiseIsOrderIndependent: a params map parses to one model or one
// error whatever order the map iterates in. "p" and "gamma" name the same
// strength, so giving both is rejected, and among several unknown keys the
// error names the smallest.
func TestParseNoiseIsOrderIndependent(t *testing.T) {
	for _, params := range []map[string]float64{
		{"p": 0.1, "gamma": 0.2},
		{"p": 0.1, "gamma": 0.1, "seed": 3},
	} {
		for i := 0; i < 50; i++ {
			if _, err := ParseNoise("amplitude_damping", params); !errors.Is(err, ErrNoiseStrengthTwice) {
				t.Fatalf("%v: error %v, want ErrNoiseStrengthTwice", params, err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		_, err := ParseNoise("depolarizing", map[string]float64{"zz": 1, "q": 0.1, "r": 2, "p": 0.1})
		if err == nil || !strings.Contains(err.Error(), `"q"`) {
			t.Fatalf("error %v, want it to name \"q\"", err)
		}
	}
	n, err := ParseNoise("amplitude_damping", map[string]float64{"gamma": 0.2, "seed": 3})
	if err != nil || n.P != 0.2 || n.Seed != 3 {
		t.Fatalf("gamma alone: %+v, %v", n, err)
	}
}

func TestNoiseInjectsErrorsDeterministically(t *testing.T) {
	c := gen.RandomCliffordT(4, 80, 1)
	res1, err := Run(c, Options{Noise: &NoiseModel{P: 0.05, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	errs1 := res1.ChannelApplications
	if errs1 == 0 {
		t.Fatal("no errors injected at p=0.05 over ~120 gate-qubit slots")
	}
	res2, err := Run(c, Options{Noise: &NoiseModel{P: 0.05, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	errs2 := res2.ChannelApplications
	if errs1 != errs2 {
		t.Errorf("same seed injected %d vs %d errors", errs1, errs2)
	}
}

func TestTrajectoryFidelityDecreasesWithNoise(t *testing.T) {
	c := gen.GHZ(6)
	fLow, err := TrajectoryFidelity(c, NoiseModel{P: 0.002, Seed: 1}, 12)
	if err != nil {
		t.Fatal(err)
	}
	fHigh, err := TrajectoryFidelity(c, NoiseModel{P: 0.2, Seed: 1}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if fLow < 0.85 {
		t.Errorf("fidelity at p=0.002 suspiciously low: %v", fLow)
	}
	if fHigh >= fLow {
		t.Errorf("fidelity did not decrease with noise: %v -> %v", fLow, fHigh)
	}
}

func TestNoisyTrajectoryWithApproximation(t *testing.T) {
	// Noise and approximation compose: the run must respect the fidelity
	// bookkeeping of the approximation strategy regardless of the injected
	// errors.
	c := gen.RandomCliffordT(8, 150, 3)
	res, err := Run(c, Options{
		Strategy: &core.MemoryDriven{Threshold: 16, RoundFidelity: 0.97},
		Noise:    &NoiseModel{P: 0.01, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimatedFidelity < res.FidelityBound-1e-9 {
		t.Errorf("tracking broken under noise: %v < %v",
			res.EstimatedFidelity, res.FidelityBound)
	}
}
