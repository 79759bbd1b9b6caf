package dd

// InnerProduct computes ⟨a|b⟩ = Σ_i conj(a_i)·b_i between two state DDs over
// the same qubits.
func (m *Manager) InnerProduct(a, b VEdge) complex128 {
	if m.IsVZero(a) || m.IsVZero(b) {
		return 0
	}
	wa := a.W.Complex()
	wb := b.W.Complex()
	return complex(real(wa), -imag(wa)) * wb * m.ipNodes(a.N, b.N)
}

func (m *Manager) ipNodes(an, bn *VNode) complex128 {
	if an.IsTerminal() {
		if !bn.IsTerminal() {
			panic("dd: InnerProduct level mismatch")
		}
		return 1
	}
	if an.Var != bn.Var {
		panic("dd: InnerProduct level mismatch")
	}
	k := ipKey{an, bn}
	h := k.hash()
	if res, ok := m.ip.lookup(k, h); ok {
		return res
	}
	var sum complex128
	for c := 0; c < 2; c++ {
		ea, eb := an.E[c], bn.E[c]
		if m.IsVZero(ea) || m.IsVZero(eb) {
			continue
		}
		wa := ea.W.Complex()
		sum += complex(real(wa), -imag(wa)) * eb.W.Complex() * m.ipNodes(ea.N, eb.N)
	}
	m.ip.store(k, h, sum)
	return sum
}

// Fidelity computes F(a,b) = |⟨a|b⟩|² (Definition 1 of the paper). For unit
// state vectors the result lies in [0, 1], with 1 iff the states are equal up
// to global phase.
func (m *Manager) Fidelity(a, b VEdge) float64 {
	ip := m.InnerProduct(a, b)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}
