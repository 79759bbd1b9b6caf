package dd

// MTrace returns the trace of the operation DD e: Σ_i e[i][i]. For a density
// matrix this is the total probability mass, which exact channel application
// preserves at 1 (the density backend asserts this invariant after every
// superoperator). It is a stamped walk (not reentrant) that computes each
// distinct node's trace once, so the cost is linear in the DD size rather
// than the 2^n diagonal length.
func (m *Manager) MTrace(e MEdge) complex128 {
	if m.IsMZero(e) {
		return 0
	}
	m.traces = m.traces[:0]
	return e.W.Complex() * m.traceWalk(e.N, m.beginWalk())
}

// traceWalk computes the trace of the weight-stripped subtree under n. Only
// the diagonal quadrants (E[0]: both bits 0, E[3]: both bits 1) contribute.
// Once the walk with this stamp has finished, it reads back the trace it
// stored for any node it reached.
func (m *Manager) traceWalk(n *MNode, stamp uint32) complex128 {
	if n.IsTerminal() {
		return 1
	}
	if n.walk == stamp {
		return m.traces[n.ord]
	}
	var sum complex128
	for _, c := range [2]int{0, 3} {
		child := n.E[c]
		if m.IsMZero(child) {
			continue
		}
		sum += child.W.Complex() * m.traceWalk(child.N, stamp)
	}
	n.walk = stamp
	n.ord = uint32(len(m.traces))
	m.traces = append(m.traces, sum)
	return sum
}

// OuterProduct builds the matrix DD |a⟩⟨b| from two state DDs over the same
// qubits. With a == b this is the density matrix of a pure state, the bridge
// between the statevector and density representations (the noiseless
// differential tests compare U ρ U† evolution against the outer product of
// the statevector result). Memoized on node pairs, so shared state structure
// stays shared in the product.
func (m *Manager) OuterProduct(a, b VEdge) MEdge {
	if m.IsVZero(a) || m.IsVZero(b) {
		return m.MZero()
	}
	memo := make(map[[2]*VNode]MEdge)
	res := m.outerNodes(a.N, b.N, memo)
	wb := b.W.Complex()
	return m.ScaleM(res, a.W.Complex()*complex(real(wb), -imag(wb)))
}

func (m *Manager) outerNodes(an, bn *VNode, memo map[[2]*VNode]MEdge) MEdge {
	if an.IsTerminal() {
		if !bn.IsTerminal() {
			panic("dd: OuterProduct level mismatch")
		}
		return MEdge{W: m.CN.One, N: m.mTerminal}
	}
	if an.Var != bn.Var {
		panic("dd: OuterProduct level mismatch")
	}
	key := [2]*VNode{an, bn}
	if res, ok := memo[key]; ok {
		return res
	}
	var e [4]MEdge
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			ea, eb := an.E[r], bn.E[c]
			if m.IsVZero(ea) || m.IsVZero(eb) {
				e[2*r+c] = m.MZero()
				continue
			}
			sub := m.outerNodes(ea.N, eb.N, memo)
			wb := eb.W.Complex()
			e[2*r+c] = m.ScaleM(sub, ea.W.Complex()*complex(real(wb), -imag(wb)))
		}
	}
	res := m.MakeMNode(an.Var, e)
	memo[key] = res
	return res
}
