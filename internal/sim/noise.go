package sim

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/density"
)

// NoiseModel configures a per-qubit, per-gate noise channel by name. It is
// the single noise schema shared by both backends — and therefore by serve's
// `noise`/`noise_params` request fields:
//
//   - the density backend applies the channel exactly as a superoperator
//     ρ → Σ_k K_k ρ K_k† after every gate, on every qubit the gate touched;
//   - the statevector backend simulates one Monte-Carlo trajectory, sampling
//     a single Kraus branch per touched qubit (for mixed-unitary channels
//     this reduces to the classic random-Pauli injection; for amplitude
//     damping it is the quantum-jump method with state-dependent branch
//     probabilities).
//
// A single trajectory stays a pure state — exactly the regime where DD
// simulation (and the paper's approximation on top of it) applies; averaging
// over trajectories converges to the density-matrix answer, which the
// differential tests assert.
type NoiseModel struct {
	// Kind names the channel (density.Depolarizing, density.AmplitudeDamping,
	// density.Dephasing, density.BitFlip, density.PhaseFlip). Empty defaults
	// to depolarizing, the historical behavior of this model.
	Kind density.Kind
	// P is the channel strength in [0, 1]: the per-qubit, per-gate error
	// probability for the mixed-unitary kinds, the damping rate γ for
	// amplitude damping.
	P float64
	// Seed makes trajectory branch sampling deterministic. The density
	// backend ignores it (exact evolution has no randomness).
	Seed int64
}

// Channel materializes the model's Kraus channel, applying the depolarizing
// default and validating the strength.
func (n NoiseModel) Channel() (density.Channel, error) {
	kind := n.Kind
	if kind == "" {
		kind = density.Depolarizing
	}
	return density.New(kind, n.P)
}

// ErrNoiseStrengthTwice rejects noise parameters that set the channel
// strength under both of its spellings, "p" and "gamma".
var ErrNoiseStrengthTwice = errors.New(`sim: noise parameters "p" and "gamma" both set the channel strength; give one`)

// ParseNoise builds a NoiseModel from the wire schema used by serve: a kind
// name plus a params map holding "p" (the channel strength; "gamma" is the
// same parameter, and giving both is ErrNoiseStrengthTwice). Unknown kinds
// and unknown parameter keys are errors, so request typos fail loudly
// instead of silently simulating noiselessly. The result and the error
// depend only on the arguments, never on map iteration order.
func ParseNoise(kind string, params map[string]float64) (NoiseModel, error) {
	n := NoiseModel{Kind: density.Kind(kind)}
	known := false
	for _, k := range density.Kinds() {
		if n.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return NoiseModel{}, fmt.Errorf("sim: unknown noise kind %q (known: %v)", kind, density.Kinds())
	}
	unknown := ""
	for key, v := range params {
		switch key {
		case "p", "gamma":
			n.P = v
		case "seed":
			n.Seed = int64(v)
		default:
			if unknown == "" || key < unknown {
				unknown = key
			}
		}
	}
	if unknown != "" {
		return NoiseModel{}, fmt.Errorf("sim: unknown noise parameter %q (known: p, gamma, seed)", unknown)
	}
	_, p := params["p"]
	if _, gamma := params["gamma"]; p && gamma {
		return NoiseModel{}, ErrNoiseStrengthTwice
	}
	if _, err := n.Channel(); err != nil {
		return NoiseModel{}, err
	}
	return n, nil
}

// TrajectoryFidelity estimates the channel fidelity at the given noise level
// by averaging |⟨ideal|trajectory⟩|² over `trajectories` runs, each on its
// own manager; the ideal state is simulated exactly once. The density
// backend computes the same quantity — ⟨ideal|ρ|ideal⟩ — exactly in a single
// run; this Monte-Carlo estimator converges to it at the usual 1/√N rate.
func TrajectoryFidelity(c *circuit.Circuit, noise NoiseModel, trajectories int) (float64, error) {
	if trajectories < 1 {
		return 0, fmt.Errorf("sim: need at least one trajectory")
	}
	ideal, err := Run(c, Options{})
	if err != nil {
		return 0, err
	}
	var sum float64
	for k := 0; k < trajectories; k++ {
		tn := noise
		tn.Seed = noise.Seed + int64(k)*7919
		res, err := Run(c, Options{Noise: &tn})
		if err != nil {
			return 0, err
		}
		f, err := Fidelity(ideal, res)
		if err != nil {
			return 0, err
		}
		sum += f
	}
	return sum / float64(trajectories), nil
}

// gateTouches lists the qubits a gate acts on — the qubits that suffer noise
// after it under either backend.
func gateTouches(g circuit.Gate) []int {
	if g.Kind == circuit.KindMeasure || g.Kind == circuit.KindReset {
		return nil // measurement is classical readout; no gate noise
	}
	return g.Qubits()
}
