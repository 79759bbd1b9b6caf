package verify

import (
	"fmt"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/dd"
)

// Result reports an equivalence check.
type Result struct {
	// Equivalent is true when the circuits match up to global phase.
	Equivalent bool
	// Phase is the global phase e^{iθ} relating the circuits when
	// equivalent (1 when also phase-equal).
	Phase complex128
	// MaxDDSize is the largest intermediate product DD observed.
	MaxDDSize int
}

// Equivalent checks whether two circuits implement the same unitary up to
// global phase, by reducing V†·U toward the identity.
func Equivalent(u, v *circuit.Circuit) (*Result, error) {
	if u.NumQubits != v.NumQubits {
		return nil, fmt.Errorf("verify: qubit counts differ (%d vs %d)", u.NumQubits, v.NumQubits)
	}
	n := u.NumQubits
	m := dd.New()
	vInv, err := v.Inverse()
	if err != nil {
		return nil, fmt.Errorf("verify: inverting second circuit: %w", err)
	}

	// Product V†·U = (gates of V†, applied after the gates of U). Build
	// left-to-right: start with I, multiply U's gates from the right side
	// first (they act first), then V†'s gates.
	prod := m.Identity(n)
	res := &Result{MaxDDSize: dd.CountMNodes(prod)}
	apply := func(c *circuit.Circuit) error {
		for _, g := range c.Gates() {
			gd, err := g.DD(m, n)
			if err != nil {
				return err
			}
			prod = m.MulMat(gd, prod)
			if size := dd.CountMNodes(prod); size > res.MaxDDSize {
				res.MaxDDSize = size
			}
		}
		return nil
	}
	if err := apply(u); err != nil {
		return nil, err
	}
	if err := apply(vInv); err != nil {
		return nil, err
	}

	res.Equivalent, res.Phase = isIdentityUpToPhase(m, prod, n)
	return res, nil
}

// isIdentityUpToPhase checks whether the operation DD is λ·I for some unit
// scalar λ. With the largest-magnitude normalization an identity DD has the
// identity chain structure and the phase sits in the root weight.
func isIdentityUpToPhase(m *dd.Manager, e dd.MEdge, n int) (bool, complex128) {
	if m.IsMZero(e) {
		return false, 0
	}
	// Structural check: node of Identity(n) is interned, so pointer
	// comparison decides instantly.
	id := m.Identity(n)
	if e.N != id.N {
		// Numerical fallback: normalization tolerance can in principle
		// leave a structurally different but numerically-identity DD.
		return isNumericallyIdentity(m, e, n)
	}
	w := e.W.Complex()
	if absErr := cmplx.Abs(w) - 1; absErr > 1e-9 || absErr < -1e-9 {
		return false, 0
	}
	return true, w
}

func isNumericallyIdentity(m *dd.Manager, e dd.MEdge, n int) (bool, complex128) {
	if n > 12 {
		// Dense expansion is 4^n; beyond this the structural check is
		// authoritative in practice.
		return false, 0
	}
	mat := m.ToMatrix(e, n)
	phase := mat[0][0]
	if cmplx.Abs(phase) < 1e-9 {
		return false, 0
	}
	for r := range mat {
		for c := range mat[r] {
			want := complex(0, 0)
			if r == c {
				want = phase
			}
			if cmplx.Abs(mat[r][c]-want) > 1e-9 {
				return false, 0
			}
		}
	}
	return true, phase / complex(cmplx.Abs(phase), 0)
}
