package density

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Kind names a built-in single-qubit noise channel. The names double as the
// wire schema: the simulation service accepts them verbatim in the `noise`
// request field, and the trajectory backend keys its per-gate sampling on
// the same values — one source of truth for both representations.
type Kind string

// Built-in channels.
const (
	// Depolarizing applies X, Y, or Z with probability P/3 each:
	// ρ → (1−P)ρ + P/3 (XρX + YρY + ZρZ).
	Depolarizing Kind = "depolarizing"
	// AmplitudeDamping is spontaneous |1⟩→|0⟩ decay with rate P = γ:
	// Kraus K0 = diag(1, √(1−γ)), K1 = √γ |0⟩⟨1|. Not mixed-unitary, so
	// trajectory simulation must sample it state-dependently (quantum
	// jumps), while the density backend applies it exactly.
	AmplitudeDamping Kind = "amplitude_damping"
	// Dephasing applies Z with probability P: ρ → (1−P)ρ + P ZρZ.
	Dephasing Kind = "dephasing"
	// BitFlip applies X with probability P.
	BitFlip Kind = "bit_flip"
	// PhaseFlip applies Z with probability P (an alias kind for Dephasing,
	// kept so both textbook names are routable).
	PhaseFlip Kind = "phase_flip"
)

// Kinds lists every built-in channel kind, in documentation order.
func Kinds() []Kind {
	return []Kind{Depolarizing, AmplitudeDamping, Dephasing, BitFlip, PhaseFlip}
}

// completenessTol bounds the allowed deviation of Σ K†K from the identity
// at channel construction.
const completenessTol = 1e-9

// Channel is a single-qubit noise channel in Kraus form: ρ → Σ_k K_k ρ K_k†.
// Construct with New, which verifies the completeness relation Σ K†K = I,
// so a Channel value is trace-preserving by construction.
type Channel struct {
	kind Kind
	p    float64
	ops  [][4]complex128
	// probs holds the branch probabilities when every Kraus operator is
	// proportional to a unitary (a mixed-unitary channel): ops[k] = √probs[k]
	// · U_k. Trajectory simulation then samples branch k state-independently
	// with probability probs[k]; nil when the channel is not mixed-unitary.
	probs []float64
}

// New builds a built-in channel. P is the channel strength: the total error
// probability for the mixed-unitary kinds, the damping rate γ for amplitude
// damping. P must lie in [0, 1]; P = 0 yields the identity channel.
func New(kind Kind, p float64) (Channel, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return Channel{}, fmt.Errorf("density: channel %q strength %v outside [0, 1]", kind, p)
	}
	c := Channel{kind: kind, p: p}
	s, d := math.Sqrt(1-p), math.Sqrt(p)
	switch kind {
	case Depolarizing:
		q := math.Sqrt(p / 3)
		c.ops = [][4]complex128{
			{complex(s, 0), 0, 0, complex(s, 0)},  // √(1−p)·I
			{0, complex(q, 0), complex(q, 0), 0},  // √(p/3)·X
			{0, complex(0, -q), complex(0, q), 0}, // √(p/3)·Y
			{complex(q, 0), 0, 0, complex(-q, 0)}, // √(p/3)·Z
		}
		c.probs = []float64{1 - p, p / 3, p / 3, p / 3}
	case AmplitudeDamping:
		c.ops = [][4]complex128{
			{1, 0, 0, complex(s, 0)}, // K0: decay-free evolution
			{0, complex(d, 0), 0, 0}, // K1: |1⟩ → |0⟩ jump
		}
		// Not mixed-unitary: K0 is non-unitary for γ > 0.
	case Dephasing, PhaseFlip:
		c.ops = [][4]complex128{
			{complex(s, 0), 0, 0, complex(s, 0)},
			{complex(d, 0), 0, 0, complex(-d, 0)}, // √p·Z
		}
		c.probs = []float64{1 - p, p}
	case BitFlip:
		c.ops = [][4]complex128{
			{complex(s, 0), 0, 0, complex(s, 0)},
			{0, complex(d, 0), complex(d, 0), 0}, // √p·X
		}
		c.probs = []float64{1 - p, p}
	default:
		return Channel{}, fmt.Errorf("density: unknown channel kind %q (known: %v)", kind, Kinds())
	}
	if err := checkComplete(c.ops); err != nil {
		return Channel{}, fmt.Errorf("density: channel %q (p=%v): %w", kind, p, err)
	}
	return c, nil
}

// checkComplete verifies the Kraus completeness relation Σ_k K_k† K_k = I
// within completenessTol — the condition for the superoperator to preserve
// the trace of every ρ.
func checkComplete(ops [][4]complex128) error {
	var sum [4]complex128
	for _, k := range ops {
		// (K†K)[i][j] = Σ_r conj(K[r][i])·K[r][j], with K row-major
		// [k0 k1; k2 k3].
		sum[0] += cmplx.Conj(k[0])*k[0] + cmplx.Conj(k[2])*k[2]
		sum[1] += cmplx.Conj(k[0])*k[1] + cmplx.Conj(k[2])*k[3]
		sum[2] += cmplx.Conj(k[1])*k[0] + cmplx.Conj(k[3])*k[2]
		sum[3] += cmplx.Conj(k[1])*k[1] + cmplx.Conj(k[3])*k[3]
	}
	id := [4]complex128{1, 0, 0, 1}
	for i := range sum {
		if cmplx.Abs(sum[i]-id[i]) > completenessTol {
			return fmt.Errorf("density: Kraus set is not trace-preserving: Σ K†K deviates from I by %g at entry %d",
				cmplx.Abs(sum[i]-id[i]), i)
		}
	}
	return nil
}

// Kind returns the channel's kind name.
func (c Channel) Kind() Kind { return c.kind }

// P returns the channel strength the channel was built with.
func (c Channel) P() float64 { return c.p }

// MixedUnitary reports whether every Kraus operator is proportional to a
// unitary, returning the state-independent branch probabilities when so.
// Trajectory simulation uses this to skip per-branch norm computation.
func (c Channel) MixedUnitary() ([]float64, bool) { return c.probs, c.probs != nil }

// Identity reports whether the channel is a no-op (strength zero).
func (c Channel) Identity() bool { return c.p == 0 }
