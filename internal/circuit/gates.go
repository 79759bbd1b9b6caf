package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
)

// gateDef is one canonical single-qubit gate: its parameter count, its 2×2
// matrix (row-major [u00 u01 u10 u11]) and its adjoint, each a function of
// the gate's parameters.
type gateDef struct {
	params  int
	matrix  func(p []float64) [4]complex128
	inverse func(p []float64) (string, []float64)
}

// gates is the single-qubit gate vocabulary (OpenQASM-compatible names). It
// is the only list of gate names, arities, matrices and inverses: Append
// validates against it and stores the canonical name, so every consumer
// (the content hash, the gate-DD cache, gen.Classify, the QASM exporter and
// the optimizer) sees one spelling per gate.
var gates = map[string]gateDef{
	"id":  {0, fixed(1, 0, 0, 1), named("id")},
	"x":   {0, fixed(0, 1, 1, 0), named("x")},
	"y":   {0, fixed(0, -1i, 1i, 0), named("y")},
	"z":   {0, fixed(1, 0, 0, -1), named("z")},
	"h":   {0, fixed(sqrtHalf, sqrtHalf, sqrtHalf, -sqrtHalf), named("h")},
	"s":   {0, fixed(1, 0, 0, 1i), named("sdg")},
	"sdg": {0, fixed(1, 0, 0, -1i), named("s")},
	"t":   {0, fixed(1, 0, 0, cmplx.Exp(1i*math.Pi/4)), named("tdg")},
	"tdg": {0, fixed(1, 0, 0, cmplx.Exp(-1i*math.Pi/4)), named("t")},
	// √X and √Y as used by the supremacy circuits: X^(1/2) and Y^(1/2).
	"sx":   {0, fixed(0.5+0.5i, 0.5-0.5i, 0.5-0.5i, 0.5+0.5i), named("sxdg")},
	"sxdg": {0, fixed(0.5-0.5i, 0.5+0.5i, 0.5+0.5i, 0.5-0.5i), named("sx")},
	"sy":   {0, fixed(0.5+0.5i, -0.5-0.5i, 0.5+0.5i, 0.5+0.5i), named("sydg")},
	"sydg": {0, fixed(0.5-0.5i, 0.5-0.5i, -0.5+0.5i, 0.5-0.5i), named("sy")},
	"rx": {1, func(p []float64) [4]complex128 {
		c, s := math.Cos(p[0]/2), math.Sin(p[0]/2)
		return [4]complex128{complex(c, 0), complex(0, -s), complex(0, -s), complex(c, 0)}
	}, negated("rx")},
	"ry": {1, func(p []float64) [4]complex128 {
		c, s := math.Cos(p[0]/2), math.Sin(p[0]/2)
		return [4]complex128{complex(c, 0), complex(-s, 0), complex(s, 0), complex(c, 0)}
	}, negated("ry")},
	"rz": {1, func(p []float64) [4]complex128 {
		return [4]complex128{cmplx.Exp(complex(0, -p[0]/2)), 0, 0, cmplx.Exp(complex(0, p[0]/2))}
	}, negated("rz")},
	"p": {1, func(p []float64) [4]complex128 {
		return [4]complex128{1, 0, 0, cmplx.Exp(complex(0, p[0]))}
	}, negated("p")},
	// u2(φ,λ)† = u3(-π/2, -λ, -φ)
	"u2": {2, func(p []float64) [4]complex128 { return u3Matrix(math.Pi/2, p[0], p[1]) },
		func(p []float64) (string, []float64) { return "u3", []float64{-math.Pi / 2, -p[1], -p[0]} }},
	// u3(θ,φ,λ)† = u3(-θ, -λ, -φ)
	"u3": {3, func(p []float64) [4]complex128 { return u3Matrix(p[0], p[1], p[2]) },
		func(p []float64) (string, []float64) { return "u3", []float64{-p[0], -p[2], -p[1]} }},
}

// aliases maps each alternative spelling onto its canonical gate.
var aliases = map[string]string{"i": "id", "u1": "p", "phase": "p", "u": "u3"}

var sqrtHalf = complex(1/math.Sqrt2, 0)

func fixed(u00, u01, u10, u11 complex128) func([]float64) [4]complex128 {
	return func([]float64) [4]complex128 { return [4]complex128{u00, u01, u10, u11} }
}

// named is the inverse of a fixed gate: the gate called name.
func named(name string) func([]float64) (string, []float64) {
	return func([]float64) (string, []float64) { return name, nil }
}

// negated is the inverse of a one-angle rotation: the same gate by -θ.
func negated(name string) func([]float64) (string, []float64) {
	return func(p []float64) (string, []float64) { return name, []float64{-p[0]} }
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

// spelt is one spelling of a gate, canonical or alias, with its canonical
// name and table entry.
type spelt struct {
	spelling, canon string
	def             gateDef
}

// index holds every spelling of gates and aliases at its slot, so resolve
// costs one probe and one string compare: Append runs it once per gate, on
// the QASM parser's hot path, where a map lookup would cost more. Building
// it panics if two spellings share a slot.
var index = func() (idx [indexSlots]spelt) {
	add := func(spelling, canon string) {
		e := &idx[slot(spelling)]
		if e.spelling != "" {
			panic(fmt.Sprintf("circuit: gates %q and %q share index slot %d", e.spelling, spelling, slot(spelling)))
		}
		*e = spelt{spelling, canon, gates[canon]}
	}
	for name := range gates {
		add(name, name)
	}
	for alias, canon := range aliases {
		add(alias, canon)
	}
	return idx
}()

// slot hashes a name into index (h·33 + b over its bytes). A new spelling
// that collides panics at package init; pick another multiplier then.
func slot(name string) int {
	var h uint
	for i := 0; i < len(name); i++ {
		h = h*33 + uint(name[i])
	}
	return int(h % indexSlots)
}

const indexSlots = 64

// resolve finds name's spelling, canonical or alias, or nil.
func resolve(name string) *spelt {
	e := &index[slot(name)]
	if name == "" || e.spelling != name {
		return nil
	}
	return e
}

// lookup is resolve with errors that name the gate as spelled, checking the
// parameter count too.
func lookup(name string, params []float64) (*spelt, error) {
	e := resolve(name)
	if e == nil {
		return nil, fmt.Errorf("circuit: unknown gate %q", name)
	}
	if len(params) != e.def.params {
		return nil, fmt.Errorf("circuit: gate %q takes %d parameter(s), got %d", name, e.def.params, len(params))
	}
	return e, nil
}

// GateParams reports the parameter count of the named single-qubit gate,
// canonical or alias, and whether the gate exists.
func GateParams(name string) (int, bool) {
	if e := resolve(name); e != nil {
		return e.def.params, true
	}
	return 0, false
}

// Matrix1Q returns the 2×2 matrix (row-major [u00 u01 u10 u11]) of the
// named single-qubit gate, canonical or alias, with its angles from params.
func Matrix1Q(name string, params []float64) ([4]complex128, error) {
	e, err := lookup(name, params)
	if err != nil {
		return [4]complex128{}, err
	}
	return e.def.matrix(params), nil
}

// InverseGate returns the canonical name and parameters of the adjoint of
// the named gate, used by Circuit.Inverse and the optimizer.
func InverseGate(name string, params []float64) (string, []float64, error) {
	e, err := lookup(name, params)
	if err != nil {
		return "", nil, err
	}
	name, params = e.def.inverse(params)
	return name, params, nil
}
