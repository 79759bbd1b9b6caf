package dd

// Add returns the element-wise sum of two state DDs over the same qubits.
// Addition is the workhorse of matrix-vector multiplication.
func (m *Manager) Add(a, b VEdge) VEdge {
	if m.IsVZero(a) {
		return b
	}
	if m.IsVZero(b) {
		return a
	}
	if a.N == b.N {
		return m.vEdge(a.W.Complex()+b.W.Complex(), a.N)
	}
	if a.N.IsTerminal() != b.N.IsTerminal() {
		panic("dd: Add level mismatch")
	}
	if a.N.IsTerminal() {
		// Both scalars on the terminal (0-qubit edge case).
		return m.vEdge(a.W.Complex()+b.W.Complex(), m.vTerminal)
	}
	if a.N.Var != b.N.Var {
		panic("dd: Add level mismatch")
	}
	// Addition is commutative; order operands by node id so the cache is
	// direction-independent.
	if a.N.id > b.N.id {
		a, b = b, a
	}
	// Factor out a.W: a + b = a.W · (A + (b.W/a.W)·B). Caching on the
	// interned ratio makes the cache scale-invariant.
	ratio := b.W.Complex() / a.W.Complex()
	r := m.CN.Lookup(ratio)
	k := addKey{a.N, b.N, r}
	h := k.hash()
	if res, ok := m.add.lookup(k, h); ok {
		return m.ScaleV(res, a.W.Complex())
	}
	var children [2]VEdge
	for i := 0; i < 2; i++ {
		ea := a.N.E[i]
		eb := m.ScaleV(b.N.E[i], ratio)
		children[i] = m.Add(ea, eb)
	}
	res := m.MakeVNode(a.N.Var, children[0], children[1])
	m.add.store(k, h, res)
	return m.ScaleV(res, a.W.Complex())
}

// AddMat returns the element-wise sum of two operation DDs.
func (m *Manager) AddMat(a, b MEdge) MEdge {
	if m.IsMZero(a) {
		return b
	}
	if m.IsMZero(b) {
		return a
	}
	if a.N == b.N {
		return m.mEdge(a.W.Complex()+b.W.Complex(), a.N)
	}
	if a.N.IsTerminal() != b.N.IsTerminal() {
		panic("dd: AddMat level mismatch")
	}
	if a.N.IsTerminal() {
		return m.mEdge(a.W.Complex()+b.W.Complex(), m.mTerminal)
	}
	if a.N.Var != b.N.Var {
		panic("dd: AddMat level mismatch")
	}
	if a.N.id > b.N.id {
		a, b = b, a
	}
	ratio := b.W.Complex() / a.W.Complex()
	r := m.CN.Lookup(ratio)
	k := maddKey{a.N, b.N, r}
	h := k.hash()
	if res, ok := m.madd.lookup(k, h); ok {
		return m.ScaleM(res, a.W.Complex())
	}
	var children [4]MEdge
	for i := 0; i < 4; i++ {
		ea := a.N.E[i]
		eb := m.ScaleM(b.N.E[i], ratio)
		children[i] = m.AddMat(ea, eb)
	}
	res := m.MakeMNode(a.N.Var, children)
	m.madd.store(k, h, res)
	return m.ScaleM(res, a.W.Complex())
}
