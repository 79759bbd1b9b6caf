package dd

import "fmt"

// Variable ordering. A Manager carries a qubit→level permutation that decides
// which DD level represents which circuit qubit. Level 0 is the bottom of the
// diagram (children of level-1 nodes); level n−1 is the root level of an
// n-qubit state. The identity order maps qubit q to level q, which was the
// only representable order before this layer existed.
//
// Nodes store levels, never qubits: the order map is pure interpretation,
// consulted by every qubit-indexed entry point (BasisState, MakeGateDD,
// Amplitude, Sample, ToVector, FromAmplitudes, MeasureQubit via its gate
// construction). Structural operations — Add, MulVec, InnerProduct, Cleanup,
// approximation — pair levels positionally and never consult the order, so
// two DDs built under the same order compose exactly as before.
//
// The order can change mid-run through SwapAdjacentLevels (the Rudell-style
// swap primitive) and Sift (a bounded dynamic-reordering pass built on it);
// both rebuild the affected levels through the unique tables, leaving the
// displaced nodes for the next Cleanup to recycle.

// SetOrder installs perm as the manager's qubit→level map: qubit q is
// represented at level perm[q]. perm must be a permutation of [0, len(perm));
// qubits ≥ len(perm) stay at their identity level, which keeps the total map
// a bijection. A nil or empty perm restores the identity order.
//
// SetOrder relabels interpretation only — it does not move any existing
// nodes. DDs built under a different order keep their structure and become
// semantically stale, so callers set the order before building states (the
// simulation session does this at start-up, on its own fresh manager).
func (m *Manager) SetOrder(perm []int) error {
	if len(perm) == 0 {
		m.qubitToLevel, m.levelToQubit = nil, nil
		return nil
	}
	n := len(perm)
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for q, l := range perm {
		if l < 0 || l >= n {
			return fmt.Errorf("dd: order maps qubit %d to level %d, outside [0,%d)", q, l, n)
		}
		if inv[l] != -1 {
			return fmt.Errorf("dd: order maps qubits %d and %d to the same level %d", inv[l], q, l)
		}
		inv[l] = q
	}
	m.qubitToLevel = append([]int(nil), perm...)
	m.levelToQubit = inv
	return nil
}

// OrderIsIdentity reports whether every qubit sits at its identity level.
func (m *Manager) OrderIsIdentity() bool {
	for q, l := range m.qubitToLevel {
		if q != l {
			return false
		}
	}
	return true
}

// QubitLevel returns the level representing qubit q.
func (m *Manager) QubitLevel(q int) int {
	if q >= 0 && q < len(m.qubitToLevel) {
		return m.qubitToLevel[q]
	}
	return q
}

// LevelQubit returns the qubit represented at level l.
func (m *Manager) LevelQubit(l int) int {
	if l >= 0 && l < len(m.levelToQubit) {
		return m.levelToQubit[l]
	}
	return l
}

// Order returns the current qubit→level map as an explicit permutation of
// length n (order[q] = level of qubit q).
func (m *Manager) Order(n int) []int {
	out := make([]int, n)
	for q := range out {
		out[q] = m.QubitLevel(q)
	}
	return out
}

// swapOrderLevels updates the order map after the variables at levels l and
// l+1 exchanged places.
func (m *Manager) swapOrderLevels(l int) {
	// Materialize the maps wide enough to hold both levels; until now they
	// may be nil (identity) or shorter than l+2.
	need := l + 2
	if len(m.qubitToLevel) < need {
		q2l := make([]int, need)
		l2q := make([]int, need)
		for i := 0; i < need; i++ {
			q2l[i], l2q[i] = m.QubitLevel(i), m.LevelQubit(i)
		}
		m.qubitToLevel, m.levelToQubit = q2l, l2q
	}
	qa, qb := m.levelToQubit[l], m.levelToQubit[l+1]
	m.qubitToLevel[qa], m.qubitToLevel[qb] = l+1, l
	m.levelToQubit[l], m.levelToQubit[l+1] = qb, qa
}
