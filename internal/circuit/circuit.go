package circuit

import (
	"fmt"
	"slices"

	"repro/internal/dd"
)

// Kind discriminates gate representations.
type Kind int

// Gate kinds.
const (
	// KindUnitary is a named single-qubit unitary with optional controls.
	KindUnitary Kind = iota
	// KindPerm is a permutation on the PermWidth low qubits with optional
	// controls on higher qubits.
	KindPerm
	// KindMeasure is a mid-circuit measurement of Target in the
	// computational basis, collapsing the state.
	KindMeasure
	// KindReset measures Target and flips it to |0⟩ if the outcome was 1.
	KindReset
)

// Gate is one circuit operation.
type Gate struct {
	Kind     Kind
	Name     string
	Target   int
	Controls []dd.Control
	Params   []float64

	// Permutation payload (KindPerm only).
	Perm      []int
	PermWidth int
}

// Matrix returns the 2×2 matrix of a KindUnitary gate.
func (g Gate) Matrix() ([4]complex128, error) {
	if g.Kind != KindUnitary {
		return [4]complex128{}, fmt.Errorf("circuit: gate %q has no 2x2 matrix", g.Name)
	}
	return Matrix1Q(g.Name, g.Params)
}

// Qubits lists the qubits g acts on: its target, or the whole register a
// permutation spans, then its controls.
func (g Gate) Qubits() []int {
	qs := make([]int, 0, 1+g.PermWidth+len(g.Controls))
	if g.Kind == KindPerm {
		for q := range g.PermWidth {
			qs = append(qs, q)
		}
	} else {
		qs = append(qs, g.Target)
	}
	for _, c := range g.Controls {
		qs = append(qs, c.Qubit)
	}
	return qs
}

// DD builds the gate's operation DD on n qubits in m: the controlled 2×2
// matrix of a unitary, or the extended permutation of a permutation gate.
func (g Gate) DD(m *dd.Manager, n int) (dd.MEdge, error) {
	switch g.Kind {
	case KindUnitary:
		u, err := g.Matrix()
		if err != nil {
			return dd.MEdge{}, err
		}
		return m.MakeGateDD(n, u, g.Target, g.Controls...), nil
	case KindPerm:
		base, err := m.MakePermutationDD(g.Perm)
		if err != nil {
			return dd.MEdge{}, err
		}
		return m.ExtendMatrix(base, g.PermWidth, n, g.Controls...), nil
	default:
		return dd.MEdge{}, fmt.Errorf("circuit: unknown gate kind %d", g.Kind)
	}
}

// String renders the gate compactly, e.g. "cx q1 -> q0" or "rz(0.5) q2".
func (g Gate) String() string {
	s := g.Name
	if len(g.Params) > 0 {
		s += "("
		for i, p := range g.Params {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%g", p)
		}
		s += ")"
	}
	for _, c := range g.Controls {
		sign := "+"
		if !c.Positive {
			sign = "-"
		}
		s += fmt.Sprintf(" c%sq%d", sign, c.Qubit)
	}
	if g.Kind == KindPerm {
		return fmt.Sprintf("%s [perm on q0..q%d]", s, g.PermWidth-1)
	}
	return fmt.Sprintf("%s q%d", s, g.Target)
}

// Circuit is an ordered gate list over a fixed qubit register.
type Circuit struct {
	Name      string
	NumQubits int

	gates  []Gate
	blocks []int // gate indices after which a block boundary sits
}

// New returns an empty circuit on n qubits.
func New(n int, name string) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: qubit count %d must be positive", n))
	}
	return &Circuit{Name: name, NumQubits: n}
}

// Gates returns the gate list (not a copy; callers must not mutate).
func (c *Circuit) Gates() []Gate { return c.gates }

// Len returns the number of gates.
func (c *Circuit) Len() int { return len(c.gates) }

// Grow reserves room for n more gates.
func (c *Circuit) Grow(n int) { c.gates = slices.Grow(c.gates, n) }

// Blocks returns the block-boundary gate indices in order.
func (c *Circuit) Blocks() []int {
	out := make([]int, len(c.blocks))
	copy(out, c.blocks)
	return out
}

// EndBlock records a block boundary after the most recently appended gate.
// Boundaries before any gate, or duplicates, are ignored.
func (c *Circuit) EndBlock() {
	idx := len(c.gates) - 1
	if idx < 0 {
		return
	}
	if len(c.blocks) > 0 && c.blocks[len(c.blocks)-1] == idx {
		return
	}
	c.blocks = append(c.blocks, idx)
}

func (c *Circuit) checkQubit(q int) {
	if q < 0 || q >= c.NumQubits {
		panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits))
	}
}

// Append adds a gate after validating targets and controls.
func (c *Circuit) Append(g Gate) {
	switch g.Kind {
	case KindUnitary:
		c.checkQubit(g.Target)
		if err := checkGate(g.Name, g.Params); err != nil {
			panic(err.Error())
		}
		for i, ctl := range g.Controls {
			c.checkQubit(ctl.Qubit)
			dup := ctl.Qubit == g.Target
			for _, prev := range g.Controls[:i] {
				dup = dup || prev.Qubit == ctl.Qubit
			}
			if dup {
				panic(fmt.Sprintf("circuit: duplicate qubit %d in gate %q", ctl.Qubit, g.Name))
			}
		}
	case KindPerm:
		if g.PermWidth <= 0 || g.PermWidth > c.NumQubits {
			panic(fmt.Sprintf("circuit: permutation width %d out of range", g.PermWidth))
		}
		if len(g.Perm) != 1<<uint(g.PermWidth) {
			panic(fmt.Sprintf("circuit: permutation length %d, want %d", len(g.Perm), 1<<uint(g.PermWidth)))
		}
		for _, ctl := range g.Controls {
			c.checkQubit(ctl.Qubit)
			if ctl.Qubit < g.PermWidth {
				panic(fmt.Sprintf("circuit: permutation control %d overlaps permuted qubits", ctl.Qubit))
			}
		}
	case KindMeasure, KindReset:
		c.checkQubit(g.Target)
		if len(g.Controls) != 0 {
			panic("circuit: measurement cannot be controlled")
		}
	default:
		panic(fmt.Sprintf("circuit: unknown gate kind %d", g.Kind))
	}
	c.gates = append(c.gates, g)
}

// Apply appends a named single-qubit gate with optional controls.
func (c *Circuit) Apply(name string, params []float64, target int, controls ...dd.Control) {
	c.Append(Gate{Kind: KindUnitary, Name: name, Params: params, Target: target, Controls: controls})
}

// Convenience builders for the common gate set.

// H appends a Hadamard.
func (c *Circuit) H(q int) { c.Apply("h", nil, q) }

// X appends a NOT.
func (c *Circuit) X(q int) { c.Apply("x", nil, q) }

// Z appends a Pauli-Z.
func (c *Circuit) Z(q int) { c.Apply("z", nil, q) }

// S appends the S phase gate.
func (c *Circuit) S(q int) { c.Apply("s", nil, q) }

// Sdg appends S†.
func (c *Circuit) Sdg(q int) { c.Apply("sdg", nil, q) }

// T appends the T gate.
func (c *Circuit) T(q int) { c.Apply("t", nil, q) }

// Tdg appends T†.
func (c *Circuit) Tdg(q int) { c.Apply("tdg", nil, q) }

// SX appends √X.
func (c *Circuit) SX(q int) { c.Apply("sx", nil, q) }

// SY appends √Y.
func (c *Circuit) SY(q int) { c.Apply("sy", nil, q) }

// RX appends a rotation around X by theta.
func (c *Circuit) RX(theta float64, q int) { c.Apply("rx", []float64{theta}, q) }

// RY appends a rotation around Y by theta.
func (c *Circuit) RY(theta float64, q int) { c.Apply("ry", []float64{theta}, q) }

// RZ appends a rotation around Z by theta.
func (c *Circuit) RZ(theta float64, q int) { c.Apply("rz", []float64{theta}, q) }

// CX appends a CNOT with the given control and target.
func (c *Circuit) CX(ctrl, target int) { c.Apply("x", nil, target, dd.PosControl(ctrl)) }

// CZ appends a controlled-Z (the supremacy circuits' conditional phase gate).
func (c *Circuit) CZ(ctrl, target int) { c.Apply("z", nil, target, dd.PosControl(ctrl)) }

// CP appends a controlled phase gate.
func (c *Circuit) CP(lambda float64, ctrl, target int) {
	c.Apply("p", []float64{lambda}, target, dd.PosControl(ctrl))
}

// CCX appends a Toffoli.
func (c *Circuit) CCX(ctrl1, ctrl2, target int) {
	c.Apply("x", nil, target, dd.PosControl(ctrl1), dd.PosControl(ctrl2))
}

// MCZ appends a multi-controlled Z (used by Grover's diffusion operator).
func (c *Circuit) MCZ(ctrls []int, target int) {
	controls := make([]dd.Control, len(ctrls))
	for i, q := range ctrls {
		controls[i] = dd.PosControl(q)
	}
	c.Apply("z", nil, target, controls...)
}

// SWAP appends a swap of two qubits (three CNOTs).
func (c *Circuit) SWAP(a, b int) {
	c.CX(a, b)
	c.CX(b, a)
	c.CX(a, b)
}

// Permutation appends a permutation gate on the width low qubits.
func (c *Circuit) Permutation(perm []int, width int, controls ...dd.Control) {
	c.Append(Gate{Kind: KindPerm, Name: "perm", Perm: perm, PermWidth: width, Controls: controls})
}

// Measure appends a mid-circuit computational-basis measurement of q.
func (c *Circuit) Measure(q int) {
	c.Append(Gate{Kind: KindMeasure, Name: "measure", Target: q})
}

// Reset appends a reset of q to |0⟩ (measure, then conditionally flip).
func (c *Circuit) Reset(q int) {
	c.Append(Gate{Kind: KindReset, Name: "reset", Target: q})
}

// Inverse returns the adjoint circuit: gates reversed and inverted. Block
// boundaries are mapped to the mirrored positions.
func (c *Circuit) Inverse() (*Circuit, error) {
	inv := New(c.NumQubits, c.Name+"_inv")
	for i := len(c.gates) - 1; i >= 0; i-- {
		g := c.gates[i]
		switch g.Kind {
		case KindUnitary:
			name, params, err := InverseGate(g.Name, g.Params)
			if err != nil {
				return nil, err
			}
			inv.Apply(name, params, g.Target, g.Controls...)
		case KindPerm:
			p := make([]int, len(g.Perm))
			for x, y := range g.Perm {
				p[y] = x
			}
			inv.Permutation(p, g.PermWidth, g.Controls...)
		case KindMeasure, KindReset:
			return nil, fmt.Errorf("circuit: %s on qubit %d is not invertible", g.Name, g.Target)
		}
	}
	return inv, nil
}

// Depth returns the circuit depth: the length of the longest chain of gates
// where each gate occupies its target and control qubits for one time step.
func (c *Circuit) Depth() int {
	level := make([]int, c.NumQubits)
	depth := 0
	for _, g := range c.gates {
		qubits := g.Qubits()
		maxLvl := 0
		for _, q := range qubits {
			if level[q] > maxLvl {
				maxLvl = level[q]
			}
		}
		for _, q := range qubits {
			level[q] = maxLvl + 1
		}
		if maxLvl+1 > depth {
			depth = maxLvl + 1
		}
	}
	return depth
}

// String summarizes the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("%s: %d qubits, %d gates, depth %d, %d blocks",
		c.Name, c.NumQubits, len(c.gates), c.Depth(), len(c.blocks))
}
