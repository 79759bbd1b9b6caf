package dd

// MTrace returns the trace of the operation DD e: Σ_i e[i][i]. For a density
// matrix this is the total probability mass, which exact channel application
// preserves at 1 (the density backend asserts this invariant after every
// superoperator). The traversal is memoized per distinct node, so the cost is
// linear in the DD size rather than the 2^n diagonal length.
func (m *Manager) MTrace(e MEdge) complex128 {
	if m.IsMZero(e) {
		return 0
	}
	if m.traceMemo == nil {
		m.traceMemo = make(map[*MNode]complex128, 256)
	} else {
		clear(m.traceMemo)
	}
	return e.W.Complex() * m.traceNode(e.N)
}

// traceNode computes the trace of the weight-stripped subtree under n. Only
// the diagonal quadrants (E[0]: both bits 0, E[3]: both bits 1) contribute.
func (m *Manager) traceNode(n *MNode) complex128 {
	if n.IsTerminal() {
		return 1
	}
	if t, ok := m.traceMemo[n]; ok {
		return t
	}
	var sum complex128
	for _, c := range [2]int{0, 3} {
		child := n.E[c]
		if m.IsMZero(child) {
			continue
		}
		sum += child.W.Complex() * m.traceNode(child.N)
	}
	m.traceMemo[n] = sum
	return sum
}

// CountM counts the distinct non-terminal nodes reachable from e against a
// visited set retained on the manager, so the density backend's per-gate DD
// size tracking allocates nothing at steady state (the matrix counterpart of
// CountV). Not reentrant.
func (m *Manager) CountM(e MEdge) int {
	if m.visitM == nil {
		m.visitM = make(map[*MNode]struct{}, 256)
	} else {
		clear(m.visitM)
	}
	m.countMWalk(e.N)
	return len(m.visitM)
}

func (m *Manager) countMWalk(n *MNode) {
	if n == nil || n.IsTerminal() {
		return
	}
	if _, ok := m.visitM[n]; ok {
		return
	}
	m.visitM[n] = struct{}{}
	for i := 0; i < 4; i++ {
		m.countMWalk(n.E[i].N)
	}
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
