package dd

// CountV is CountVNodes against a visited set retained on the manager, so
// the per-gate DD size tracking in sim (the hottest CountVNodes caller by
// far) allocates nothing at steady state. Not reentrant: callers must not
// hold a CountV traversal open across another CountV call.
func (m *Manager) CountV(e VEdge) int {
	return m.countRootNodes([]VEdge{e})
}

// countRootNodes returns the number of distinct non-terminal nodes reachable
// from any of the roots (the combined DD size sifting minimizes), walking
// with CountV's retained visited set.
func (m *Manager) countRootNodes(roots []VEdge) int {
	if m.visitV == nil {
		m.visitV = make(map[*VNode]struct{}, 256)
	} else {
		clear(m.visitV) // clear keeps the buckets; no reallocation
	}
	for _, r := range roots {
		m.countVWalk(r.N)
	}
	return len(m.visitV)
}

func (m *Manager) countVWalk(n *VNode) {
	if n == nil || n.IsTerminal() {
		return
	}
	if _, ok := m.visitV[n]; ok {
		return
	}
	m.visitV[n] = struct{}{}
	m.countVWalk(n.E[0].N)
	m.countVWalk(n.E[1].N)
}

// CountVNodes returns the number of distinct non-terminal nodes reachable
// from e. This is the paper's "DD size" metric (Table I, "Max. DD Size").
// Manager.CountV is the allocation-free variant for hot loops.
func CountVNodes(e VEdge) int {
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
		walk(n.E[0].N)
		walk(n.E[1].N)
	}
	walk(e.N)
	return len(seen)
}

// CountMNodes returns the number of distinct non-terminal nodes reachable
// from the operation edge e.
func CountMNodes(e MEdge) int {
	seen := make(map[*MNode]struct{})
	var walk func(n *MNode)
	walk = func(n *MNode) {
		if n == nil || n.IsTerminal() {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		for i := 0; i < 4; i++ {
			walk(n.E[i].N)
		}
	}
	walk(e.N)
	return len(seen)
}

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
