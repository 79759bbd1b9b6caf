package dd

// Node walks of both kinds mark the nodes they reach with a per-manager
// visit stamp instead of filling a visited set: beginWalk hands out a fresh
// stamp, and a node whose walk field holds it has been seen by the current
// walk. A node carries one stamp, so walks are not reentrant, across kinds
// too: one must finish before the next begins, and a matrix walk must never
// run inside a vector walk, nor the other way round.

// beginWalk returns a fresh visit stamp. When the counter wraps, every
// interned node's stamp, of both kinds, is reset once, so a node last
// stamped 2^32 walks ago cannot pass for visited. Swept nodes need no reset:
// the pool zeroes them.
func (m *Manager) beginWalk() uint32 {
	m.walkStamp++
	if m.walkStamp == 0 {
		m.vNodes.resetWalks()
		m.mNodes.resetWalks()
		m.walkStamp = 1
	}
	return m.walkStamp
}

// CountV returns the number of distinct non-terminal nodes reachable from e
// (CountVNodes without the visited set, so the per-gate DD size tracking in
// sim allocates nothing). It is a stamped walk: not reentrant.
func (m *Manager) CountV(e VEdge) int {
	return countVWalk(e.N, m.beginWalk())
}

func countVWalk(n *VNode, stamp uint32) int {
	if n == nil || n.IsTerminal() || n.walk == stamp {
		return 0
	}
	n.walk = stamp
	return 1 + countVWalk(n.E[0].N, stamp) + countVWalk(n.E[1].N, stamp)
}

// NumberVNodes appends every distinct non-terminal node reachable from e to
// dst, in the depth-first order of CollectVNodes, and numbers each with its
// index in the returned slice (VNode.Ord). Callers keep per-node state in
// slices indexed by that ordinal instead of maps keyed by node. The numbers
// hold until the next NumberVNodes call on the manager reaches the node; it
// is a stamped walk, so not reentrant.
func (m *Manager) NumberVNodes(dst []*VNode, e VEdge) []*VNode {
	return numberVWalk(dst, e.N, m.beginWalk())
}

func numberVWalk(dst []*VNode, n *VNode, stamp uint32) []*VNode {
	if n == nil || n.IsTerminal() || n.walk == stamp {
		return dst
	}
	n.walk = stamp
	n.ord = uint32(len(dst))
	dst = append(dst, n)
	dst = numberVWalk(dst, n.E[0].N, stamp)
	return numberVWalk(dst, n.E[1].N, stamp)
}

// CountM returns the number of distinct non-terminal nodes reachable from
// e: CountV for matrix DDs, so the density backend's per-gate DD size
// tracking allocates nothing. It is a stamped walk: not reentrant.
func (m *Manager) CountM(e MEdge) int {
	return countMWalk(e.N, m.beginWalk())
}

func countMWalk(n *MNode, stamp uint32) int {
	if n == nil || n.IsTerminal() || n.walk == stamp {
		return 0
	}
	n.walk = stamp
	return 1 + countMWalk(n.E[0].N, stamp) + countMWalk(n.E[1].N, stamp) +
		countMWalk(n.E[2].N, stamp) + countMWalk(n.E[3].N, stamp)
}

// CountVNodes returns the number of distinct non-terminal nodes reachable
// from e. This is the paper's "DD size" metric (Table I, "Max. DD Size").
// Manager.CountV is the allocation-free variant for hot loops.
func CountVNodes(e VEdge) int { return len(CollectVNodes(e)) }

// CollectVNodes returns all distinct non-terminal nodes reachable from e.
// The traversal order is depth-first; callers needing level order should
// sort by Var.
func CollectVNodes(e VEdge) []*VNode {
	var nodes []*VNode
	seen := make(map[*VNode]struct{})
	var walk func(n *VNode)
	walk = func(n *VNode) {
		if n == nil || n.IsTerminal() {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		nodes = append(nodes, n)
		walk(n.E[0].N)
		walk(n.E[1].N)
	}
	walk(e.N)
	return nodes
}
