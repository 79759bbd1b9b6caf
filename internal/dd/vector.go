package dd

import (
	"fmt"
	"math"
)

// BasisState returns the n-qubit computational basis state |bits⟩, where bit
// q of bits is the value of qubit q (placed at the qubit's level under the
// manager's variable order).
func (m *Manager) BasisState(n int, bits uint64) VEdge {
	if n <= 0 || n > 63 {
		panic(fmt.Sprintf("dd: BasisState qubit count %d out of range", n))
	}
	e := VEdge{W: m.CN.One, N: m.vTerminal}
	for l := 0; l < n; l++ {
		if bits>>uint(m.LevelQubit(l))&1 == 0 {
			e = m.MakeVNode(int32(l), e, m.VZero())
		} else {
			e = m.MakeVNode(int32(l), m.VZero(), e)
		}
	}
	return e
}

// FromAmplitudes builds a state DD from a dense amplitude vector whose length
// must be a power of two. The vector is not required to be normalized; the
// norm is folded into the root weight.
func (m *Manager) FromAmplitudes(vec []complex128) (VEdge, error) {
	n := 0
	for 1<<uint(n) < len(vec) {
		n++
	}
	if len(vec) == 0 || 1<<uint(n) != len(vec) {
		return VEdge{}, fmt.Errorf("dd: amplitude vector length %d is not a power of two", len(vec))
	}
	if n == 0 {
		return m.vEdge(vec[0], m.vTerminal), nil
	}
	return m.fromAmps(int32(n-1), 0, vec), nil
}

func (m *Manager) fromAmps(level int32, base uint64, vec []complex128) VEdge {
	if level < 0 {
		return m.vEdge(vec[base], m.vTerminal)
	}
	bit := uint64(1) << uint(m.LevelQubit(int(level)))
	e0 := m.fromAmps(level-1, base, vec)
	e1 := m.fromAmps(level-1, base|bit, vec)
	return m.MakeVNode(level, e0, e1)
}

// NumQubits returns the number of qubits spanned by the state edge (0 for
// zero/terminal edges).
func NumQubits(e VEdge) int {
	if e.N == nil || e.N.IsTerminal() {
		return 0
	}
	return int(e.N.Var) + 1
}

// Amplitude returns the amplitude of basis state idx in the n-qubit state e,
// by multiplying the edge weights along the path (Example 4 of the paper).
func (m *Manager) Amplitude(e VEdge, idx uint64, n int) complex128 {
	w := e.W.Complex()
	node := e.N
	for l := n - 1; l >= 0; l-- {
		if w == 0 {
			return 0
		}
		if node.IsTerminal() {
			panic("dd: Amplitude reached terminal early (qubit count mismatch)")
		}
		child := node.E[idx>>uint(m.LevelQubit(l))&1]
		w *= child.W.Complex()
		node = child.N
	}
	return w
}

// ToVector expands the n-qubit state into a dense amplitude vector. Intended
// for tests and small systems; cost is O(2^n).
func (m *Manager) ToVector(e VEdge, n int) []complex128 {
	out := make([]complex128, 1<<uint(n))
	m.fillVector(e.W.Complex(), e.N, n-1, 0, out)
	return out
}

func (m *Manager) fillVector(w complex128, node *VNode, level int, base uint64, out []complex128) {
	if w == 0 {
		return
	}
	if level < 0 {
		out[base] = w
		return
	}
	m.fillVector(w*node.E[0].W.Complex(), node.E[0].N, level-1, base, out)
	m.fillVector(w*node.E[1].W.Complex(), node.E[1].N, level-1, base|1<<uint(m.LevelQubit(level)), out)
}

// Norm returns the 2-norm of the state ‖e‖ = sqrt(⟨e|e⟩).
func (m *Manager) Norm(e VEdge) float64 {
	ip := m.InnerProduct(e, e)
	return math.Sqrt(real(ip))
}
