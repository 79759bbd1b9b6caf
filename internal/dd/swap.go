package dd

import "fmt"

// SwapAdjacentLevels exchanges the variables at levels l and l+1 of the
// vector DD rooted at root, returning the rewritten root. This is the
// adjacent-swap primitive of dynamic reordering (Rudell sifting): only nodes
// at level l+1 and above are rebuilt — everything below the swapped pair is
// shared untouched — and the manager's qubit→level map is updated so the
// state keeps its meaning.
//
// The rebuilt nodes go through the unique tables like any other creation;
// the displaced originals stay interned (and structurally valid) until the
// next Cleanup sweeps them onto the pool free stacks. Compute-cache entries
// key on node identity and stay sound, but operation DDs built under the old
// order are semantically stale for the new one — callers owning gate caches
// must drop them (the simulation session does, and Sift finishes with a
// Cleanup that also recycles the transients).
//
// Edges reachable from the manager other than root are not rewritten and
// keep their old-order meaning, so the root is the one edge a caller can
// keep using.
func (m *Manager) SwapAdjacentLevels(l int, root VEdge) VEdge {
	if l < 0 {
		panic(fmt.Sprintf("dd: SwapAdjacentLevels level %d negative", l))
	}
	upper := int32(l + 1)
	memo := make(map[*VNode]VEdge)
	var rewrite func(n *VNode) VEdge
	rewrite = func(n *VNode) VEdge {
		if n.IsTerminal() || n.Var < upper {
			// Below the swapped pair: shared as-is.
			return VEdge{W: m.CN.One, N: n}
		}
		if e, ok := memo[n]; ok {
			return e
		}
		var res VEdge
		if n.Var > upper {
			var ch [2]VEdge
			for i := 0; i < 2; i++ {
				if m.IsVZero(n.E[i]) {
					ch[i] = m.VZero()
					continue
				}
				sub := rewrite(n.E[i].N)
				ch[i] = m.ScaleV(sub, n.E[i].W.Complex())
			}
			res = m.MakeVNode(n.Var, ch[0], ch[1])
		} else {
			// n is at the upper swapped level: its sub-block over (old upper
			// bit i, old lower bit j) transposes to (j, i).
			//
			//   F(x_up=i, x_lo=j) = w_i · F_i(j)   with F_i = n.E[i]
			//
			// The new upper child for j holds the old upper bit as its own
			// branching bit: G_j = node(l, F_{0j}, F_{1j}).
			sub := func(i, j int) VEdge {
				fi := n.E[i]
				if m.IsVZero(fi) {
					return m.VZero()
				}
				// Quasi-reduced invariant: a non-zero child of a level-(l+1)
				// node is a node at level l, so fi.N.E[j] is well-defined.
				return m.ScaleV(fi.N.E[j], fi.W.Complex())
			}
			g0 := m.MakeVNode(int32(l), sub(0, 0), sub(1, 0))
			g1 := m.MakeVNode(int32(l), sub(0, 1), sub(1, 1))
			res = m.MakeVNode(upper, g0, g1)
		}
		memo[n] = res
		return res
	}

	if !m.IsVZero(root) && !root.N.IsTerminal() && root.N.Var >= upper {
		root = m.ScaleV(rewrite(root.N), root.W.Complex())
	}
	m.swapOrderLevels(l)
	m.levelSwaps++
	return root
}
