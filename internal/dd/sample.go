package dd

import (
	"fmt"
	"math"
	"math/rand"
)

// Sample draws one basis state from the measurement distribution of the
// n-qubit state e, without collapsing it. With the |w0|²+|w1|² = 1 node
// normalization, sampling is a single weighted walk from the root: at each
// node the squared child-weight magnitudes are the conditional outcome
// probabilities for that qubit.
func (m *Manager) Sample(e VEdge, n int, rng *rand.Rand) uint64 {
	if m.IsVZero(e) {
		panic("dd: Sample on zero state")
	}
	var idx uint64
	node := e.N
	for l := n - 1; l >= 0; l-- {
		if node.IsTerminal() {
			panic("dd: Sample reached terminal early (qubit count mismatch)")
		}
		p0 := node.E[0].W.Abs2()
		p1 := node.E[1].W.Abs2()
		// Guard against floating point drift in the conditional split.
		r := rng.Float64() * (p0 + p1)
		var bit uint64
		if r >= p0 {
			bit = 1
		}
		idx |= bit << uint(m.LevelQubit(l))
		node = node.E[bit].N
	}
	return idx
}

// SampleMany draws shots samples and returns a histogram of basis states.
func (m *Manager) SampleMany(e VEdge, n, shots int, rng *rand.Rand) map[uint64]int {
	hist := make(map[uint64]int)
	for i := 0; i < shots; i++ {
		hist[m.Sample(e, n, rng)]++
	}
	return hist
}

// DiagonalProbability returns the diagonal entry e[idx][idx] of the n-qubit
// density matrix e, clamped to [0, 1]: the probability of measuring basis
// state idx. Cost is one root-to-terminal walk.
func (m *Manager) DiagonalProbability(e MEdge, idx uint64, n int) float64 {
	w, node := e.W.Complex(), e.N
	for l := n - 1; l >= 0; l-- {
		if w == 0 {
			return 0
		}
		if node.IsTerminal() {
			panic("dd: DiagonalProbability reached terminal early (qubit count mismatch)")
		}
		bit := idx >> uint(m.LevelQubit(l)) & 1
		child := node.E[3*bit] // quadrant (0,0) or (1,1)
		w *= child.W.Complex()
		node = child.N
	}
	return max(0, min(1, real(w)))
}

// SampleDiagonal draws shots samples from the diagonal distribution of the
// n-qubit density matrix e without collapsing it, and returns a histogram
// of basis states. One MTrace walk gives every node's trace; at each node
// of a shot's root-to-terminal walk the conditional bit probabilities are
// then the partial diagonal sums Re(W · w_b · tr(child_b)), which are
// nonnegative for a positive semidefinite e.
func (m *Manager) SampleDiagonal(e MEdge, n, shots int, rng *rand.Rand) map[uint64]int {
	if shots > 0 && m.IsMZero(e) {
		panic("dd: SampleDiagonal on zero state")
	}
	m.MTrace(e)
	stamp := m.walkStamp // traceWalk at the finished walk's stamp reads its stored traces
	hist := make(map[uint64]int)
	for i := 0; i < shots; i++ {
		var idx uint64
		w, node := e.W.Complex(), e.N
		for l := n - 1; l >= 0; l-- {
			if node.IsTerminal() {
				panic("dd: SampleDiagonal reached terminal early (qubit count mismatch)")
			}
			c0, c1 := node.E[0], node.E[3]
			p0 := math.Max(0, real(w*c0.W.Complex()*m.traceWalk(c0.N, stamp)))
			p1 := math.Max(0, real(w*c1.W.Complex()*m.traceWalk(c1.N, stamp)))
			r := rng.Float64() * (p0 + p1)
			var bit uint64
			if r >= p0 {
				bit = 1
			}
			idx |= bit << uint(m.LevelQubit(l))
			child := node.E[3*bit]
			w *= child.W.Complex()
			node = child.N
		}
		hist[idx]++
	}
	return hist
}

// Probability returns the measurement probability |amplitude|² of basis
// state idx.
func (m *Manager) Probability(e VEdge, idx uint64, n int) float64 {
	a := m.Amplitude(e, idx, n)
	return real(a)*real(a) + imag(a)*imag(a)
}

// ProbabilityOne returns the probability that measuring qubit q yields 1.
func (m *Manager) ProbabilityOne(e VEdge, q, n int) float64 {
	if q < 0 || q >= n {
		panic(fmt.Sprintf("dd: qubit %d out of range", q))
	}
	proj := m.MakeGateDD(n, [4]complex128{0, 0, 0, 1}, q)
	projected := m.MulVec(proj, e)
	norm := m.InnerProduct(projected, projected)
	return max(0, min(1, real(norm)/realNonZero(m.InnerProduct(e, e))))
}

// MeasureQubit measures qubit q of the n-qubit state, collapsing it. It
// returns the observed bit and the renormalized post-measurement state.
func (m *Manager) MeasureQubit(e VEdge, q, n int, rng *rand.Rand) (int, VEdge) {
	p1 := m.ProbabilityOne(e, q, n)
	bit := 0
	if rng.Float64() < p1 {
		bit = 1
	}
	return bit, m.ProjectQubit(e, q, n, bit)
}

// ProjectQubit projects qubit q of the state onto the given bit value and
// renormalizes. Projecting onto a zero-probability branch returns the zero
// edge.
func (m *Manager) ProjectQubit(e VEdge, q, n, bit int) VEdge {
	var u [4]complex128
	if bit == 0 {
		u = [4]complex128{1, 0, 0, 0}
	} else {
		u = [4]complex128{0, 0, 0, 1}
	}
	proj := m.MakeGateDD(n, u, q)
	projected := m.MulVec(proj, e)
	if m.IsVZero(projected) {
		return projected
	}
	norm := m.Norm(projected)
	return m.ScaleV(projected, complex(1/norm, 0))
}

func realNonZero(c complex128) float64 {
	r := real(c)
	if r == 0 {
		return 1
	}
	return r
}
