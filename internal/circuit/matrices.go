package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix1Q returns the 2×2 matrix (row-major [u00 u01 u10 u11]) for a named
// single-qubit gate. Parameterized gates take their angles from params.
//
// Supported names (OpenQASM-compatible where applicable):
//
//	id x y z h s sdg t tdg sx sxdg sy sydg
//	rx(θ) ry(θ) rz(θ) p(λ) u1(λ) u2(φ,λ) u3(θ,φ,λ) u(θ,φ,λ)
func Matrix1Q(name string, params []float64) ([4]complex128, error) {
	if err := checkGate(name, params); err != nil {
		return [4]complex128{}, err
	}
	s2 := complex(1/math.Sqrt2, 0)
	switch name {
	case "id", "i":
		return [4]complex128{1, 0, 0, 1}, nil
	case "x":
		return [4]complex128{0, 1, 1, 0}, nil
	case "y":
		return [4]complex128{0, -1i, 1i, 0}, nil
	case "z":
		return [4]complex128{1, 0, 0, -1}, nil
	case "h":
		return [4]complex128{s2, s2, s2, -s2}, nil
	case "s":
		return [4]complex128{1, 0, 0, 1i}, nil
	case "sdg":
		return [4]complex128{1, 0, 0, -1i}, nil
	case "t":
		return [4]complex128{1, 0, 0, cmplx.Exp(1i * math.Pi / 4)}, nil
	case "tdg":
		return [4]complex128{1, 0, 0, cmplx.Exp(-1i * math.Pi / 4)}, nil
	case "sx":
		// √X as used by the supremacy circuits: X^(1/2).
		return [4]complex128{
			complex(0.5, 0.5), complex(0.5, -0.5),
			complex(0.5, -0.5), complex(0.5, 0.5),
		}, nil
	case "sxdg":
		return [4]complex128{
			complex(0.5, -0.5), complex(0.5, 0.5),
			complex(0.5, 0.5), complex(0.5, -0.5),
		}, nil
	case "sy":
		// √Y = Y^(1/2).
		return [4]complex128{
			complex(0.5, 0.5), complex(-0.5, -0.5),
			complex(0.5, 0.5), complex(0.5, 0.5),
		}, nil
	case "sydg":
		return [4]complex128{
			complex(0.5, -0.5), complex(0.5, -0.5),
			complex(-0.5, 0.5), complex(0.5, -0.5),
		}, nil
	case "rx":
		c, s := math.Cos(params[0]/2), math.Sin(params[0]/2)
		return [4]complex128{complex(c, 0), complex(0, -s), complex(0, -s), complex(c, 0)}, nil
	case "ry":
		c, s := math.Cos(params[0]/2), math.Sin(params[0]/2)
		return [4]complex128{complex(c, 0), complex(-s, 0), complex(s, 0), complex(c, 0)}, nil
	case "rz":
		return [4]complex128{cmplx.Exp(complex(0, -params[0]/2)), 0, 0, cmplx.Exp(complex(0, params[0]/2))}, nil
	case "p", "u1", "phase":
		return [4]complex128{1, 0, 0, cmplx.Exp(complex(0, params[0]))}, nil
	case "u2":
		return u3Matrix(math.Pi/2, params[0], params[1]), nil
	case "u3", "u":
		return u3Matrix(params[0], params[1], params[2]), nil
	}
	// Unreachable while checkGate and this switch name the same gates.
	return [4]complex128{}, fmt.Errorf("circuit: unknown gate %q", name)
}

// checkGate reports the error Matrix1Q returns for name and params, without
// building the matrix.
func checkGate(name string, params []float64) error {
	var n int
	switch name {
	case "id", "i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "sy", "sydg":
		n = 0
	case "rx", "ry", "rz", "p", "u1", "phase":
		n = 1
	case "u2":
		n = 2
	case "u3", "u":
		n = 3
	default:
		return fmt.Errorf("circuit: unknown gate %q", name)
	}
	if len(params) != n {
		return fmt.Errorf("circuit: gate %q takes %d parameter(s), got %d", name, n, len(params))
	}
	return nil
}

func u3Matrix(theta, phi, lambda float64) [4]complex128 {
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	return [4]complex128{
		complex(c, 0),
		-cmplx.Exp(complex(0, lambda)) * complex(s, 0),
		cmplx.Exp(complex(0, phi)) * complex(s, 0),
		cmplx.Exp(complex(0, phi+lambda)) * complex(c, 0),
	}
}

// InverseGate returns the name and parameters of the adjoint of the named
// gate, used by Circuit.Inverse.
func InverseGate(name string, params []float64) (string, []float64, error) {
	neg := func(ps []float64) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = -p
		}
		return out
	}
	switch name {
	case "id", "i", "x", "y", "z", "h":
		return name, nil, nil
	case "s":
		return "sdg", nil, nil
	case "sdg":
		return "s", nil, nil
	case "t":
		return "tdg", nil, nil
	case "tdg":
		return "t", nil, nil
	case "sx":
		return "sxdg", nil, nil
	case "sxdg":
		return "sx", nil, nil
	case "sy":
		return "sydg", nil, nil
	case "sydg":
		return "sy", nil, nil
	case "rx", "ry", "rz", "p", "u1", "phase":
		return name, neg(params), nil
	case "u2":
		// u2(φ,λ)† = u3(-π/2, -λ, -φ)
		if len(params) != 2 {
			return "", nil, fmt.Errorf("circuit: u2 takes 2 parameters")
		}
		return "u3", []float64{-math.Pi / 2, -params[1], -params[0]}, nil
	case "u3", "u":
		// u3(θ,φ,λ)† = u3(-θ, -λ, -φ)
		if len(params) != 3 {
			return "", nil, fmt.Errorf("circuit: u3 takes 3 parameters")
		}
		return "u3", []float64{-params[0], -params[2], -params[1]}, nil
	default:
		return "", nil, fmt.Errorf("circuit: cannot invert unknown gate %q", name)
	}
}
