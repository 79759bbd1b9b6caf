package dd

import (
	"fmt"
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
