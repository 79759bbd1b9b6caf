package dd

// Cleanup is the manager's incremental garbage collector: it marks the nodes
// reachable from the given roots with a fresh generation stamp, sweeps every
// unique-table bucket chain in place (unlinking dead nodes onto the pool
// free stacks for recycling), and invalidates the compute caches with an O(1)
// generation bump. No table is reallocated and nothing is handed to Go's
// allocator, so a steady-state build/Cleanup cycle runs allocation-free.
//
// Live DD edges held by the caller but not passed as roots become invalid
// for further Manager operations (their nodes are recycled and may be
// reinitialized with different contents), so callers must pass every edge
// they intend to keep using. The cached identity chain stays live by
// construction.
func (m *Manager) Cleanup(vRoots []VEdge, mRoots []MEdge) {
	// gcGen wrap needs no guard (unlike the cache generations, see
	// computeCache.invalidate): every sweep either restamps an interned node
	// to the current generation or releases it, and nodes created between
	// sweeps are stamped at creation, so at this point every interned node's
	// gen equals the old gcGen and can never collide with the incremented
	// value, wrapped or not.
	m.gcGen++
	for _, e := range vRoots {
		m.markV(e.N)
	}
	for _, e := range mRoots {
		m.markM(e.N)
	}
	for _, e := range m.idChain {
		m.markM(e.N)
	}

	m.vNodes.sweep(m.gcGen)
	m.mNodes.sweep(m.gcGen)

	m.cleanups++
	m.ClearCaches()
}

// markV stamps the subgraph under n with the current GC generation.
func (m *Manager) markV(n *VNode) {
	if n == nil || n.IsTerminal() || n.gen == m.gcGen {
		return
	}
	n.gen = m.gcGen
	m.markV(n.E[0].N)
	m.markV(n.E[1].N)
}

func (m *Manager) markM(n *MNode) {
	if n == nil || n.IsTerminal() || n.gen == m.gcGen {
		return
	}
	n.gen = m.gcGen
	for i := 0; i < 4; i++ {
		m.markM(n.E[i].N)
	}
}

// ClearCaches invalidates all compute caches (add, multiply, inner product)
// by bumping their generations — O(1), no reallocation. Safe at any time;
// only costs recomputation.
func (m *Manager) ClearCaches() {
	m.add.invalidate()
	m.madd.invalidate()
	m.mul.invalidate()
	m.mm.invalidate()
	m.ip.invalidate()
}
