package dd

import "repro/internal/cnum"

// InnerProduct computes ⟨a|b⟩ = Σ_i conj(a_i)·b_i between two state DDs over
// the same qubits and variable order. a must belong to m; b may belong to
// another manager. Zero edges are recognised by their weight's value, the
// same in every manager's table. A product across managers memoizes in a
// cache local to the call, so no entry keyed by b's nodes outlives it (and
// m's cache statistics count only m's own products).
func (m *Manager) InnerProduct(a, b VEdge) complex128 {
	if isZeroWeight(a.W) || isZeroWeight(b.W) {
		return 0
	}
	cache := &m.ip
	if vTerminalOf(b.N) != m.vTerminal {
		local := newComputeCache[ipKey, complex128](ipCacheMax)
		cache = &local
	}
	wa := a.W.Complex()
	wb := b.W.Complex()
	return complex(real(wa), -imag(wa)) * wb * ipNodes(cache, a.N, b.N)
}

func ipNodes(cache *computeCache[ipKey, complex128], an, bn *VNode) complex128 {
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
	if res, ok := cache.lookup(k, h); ok {
		return res
	}
	var sum complex128
	for c := 0; c < 2; c++ {
		ea, eb := an.E[c], bn.E[c]
		if isZeroWeight(ea.W) || isZeroWeight(eb.W) {
			continue
		}
		wa := ea.W.Complex()
		sum += complex(real(wa), -imag(wa)) * eb.W.Complex() * ipNodes(cache, ea.N, eb.N)
	}
	cache.store(k, h, sum)
	return sum
}

// isZeroWeight reports whether w is the zero weight of any manager's table.
func isZeroWeight(w *cnum.Value) bool { return w.Complex() == 0 }

// vTerminalOf returns the terminal under n: the vector terminal of the
// manager that built n (a zero child points at it too).
func vTerminalOf(n *VNode) *VNode {
	for !n.IsTerminal() {
		n = n.E[0].N
	}
	return n
}

// Fidelity computes F(a,b) = |⟨a|b⟩|² (Definition 1 of the paper). For unit
// state vectors the result lies in [0, 1], with 1 iff the states are equal up
// to global phase. Like InnerProduct, b may belong to another manager.
func (m *Manager) Fidelity(a, b VEdge) float64 {
	ip := m.InnerProduct(a, b)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}
