package dd

// MulVec applies the operation DD op to the state DD v (matrix-vector
// multiplication), the core simulation step of Section II-A performed
// directly on decision diagrams. Below a gate's lowest target or control the
// operation is the cached identity, and the state's sub-DD there is returned
// as is instead of being walked and rebuilt.
func (m *Manager) MulVec(op MEdge, v VEdge) VEdge {
	if m.IsMZero(op) || m.IsVZero(v) {
		return m.VZero()
	}
	res := m.mulVecNodes(op.N, v.N)
	return m.ScaleV(res, op.W.Complex()*v.W.Complex())
}

// mulVecNodes multiplies weight-stripped nodes; results are cached on the
// node-pointer pair, which is sound because the outer weights were factored
// out by MulVec.
func (m *Manager) mulVecNodes(mn *MNode, vn *VNode) VEdge {
	if mn.IsTerminal() {
		if !vn.IsTerminal() {
			panic("dd: MulVec level mismatch")
		}
		return VEdge{W: m.CN.One, N: m.vTerminal}
	}
	if mn.Var != vn.Var {
		panic("dd: MulVec level mismatch")
	}
	if int(mn.Var)+1 < len(m.idChain) && m.idChain[mn.Var+1].N == mn {
		return VEdge{W: m.CN.One, N: vn}
	}
	k := mulKey{mn, vn}
	h := k.hash()
	if res, ok := m.mul.lookup(k, h); ok {
		return res
	}
	var children [2]VEdge
	for r := 0; r < 2; r++ {
		p0 := m.MulVec(mn.E[2*r+0], vn.E[0])
		p1 := m.MulVec(mn.E[2*r+1], vn.E[1])
		children[r] = m.Add(p0, p1)
	}
	res := m.MakeVNode(mn.Var, children[0], children[1])
	m.mul.store(k, h, res)
	return res
}

// MulMat multiplies two operation DDs: result = a·b (apply b first). This is
// the matrix-matrix alternative studied in Zulehner/Wille DATE 2019 [31] and
// is used by the mat-mat ablation bench.
func (m *Manager) MulMat(a, b MEdge) MEdge {
	if m.IsMZero(a) || m.IsMZero(b) {
		return m.MZero()
	}
	res := m.mulMatNodes(a.N, b.N)
	return m.ScaleM(res, a.W.Complex()*b.W.Complex())
}

func (m *Manager) mulMatNodes(an, bn *MNode) MEdge {
	if an.IsTerminal() {
		if !bn.IsTerminal() {
			panic("dd: MulMat level mismatch")
		}
		return MEdge{W: m.CN.One, N: m.mTerminal}
	}
	if an.Var != bn.Var {
		panic("dd: MulMat level mismatch")
	}
	k := mmKey{an, bn}
	h := k.hash()
	if res, ok := m.mm.lookup(k, h); ok {
		return res
	}
	var children [4]MEdge
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			// (a·b)[r][c] = Σ_k a[r][k]·b[k][c]
			p0 := m.MulMat(an.E[2*r+0], bn.E[0+c])
			p1 := m.MulMat(an.E[2*r+1], bn.E[2+c])
			children[2*r+c] = m.AddMat(p0, p1)
		}
	}
	res := m.MakeMNode(an.Var, children)
	m.mm.store(k, h, res)
	return res
}
