package dd

// Cleanup is the manager's incremental garbage collector: it marks the nodes
// reachable from the given roots with a fresh generation stamp, sweeps every
// unique-table bucket chain in place (unlinking dead nodes onto the pool
// free lists for recycling), and invalidates the compute caches with an O(1)
// generation bump. No table is reallocated and nothing is handed to Go's
// allocator, so a steady-state build/Cleanup cycle runs allocation-free.
//
// Live DD edges held by the caller but not passed as roots become invalid
// for further Manager operations (their nodes are recycled and may be
// reinitialized with different contents), so callers must pass every edge
// they intend to keep using. The cached identity chain stays live by
// construction.
func (m *Manager) Cleanup(vRoots []VEdge, mRoots []MEdge) {
	// gcGen wrap needs no guard (unlike cacheGen in ClearCaches): every
	// sweep either restamps an interned node to the current generation or
	// releases it, and nodes created between sweeps are stamped at creation,
	// so at this point every interned node's gen equals the old gcGen and
	// can never collide with the incremented value, wrapped or not.
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

	for i := range m.vLevels {
		lt := &m.vLevels[i]
		for b, head := range lt.buckets {
			var keep *VNode
			for n := head; n != nil; {
				next := n.next
				if n.gen == m.gcGen {
					n.next = keep
					keep = n
				} else {
					lt.count--
					m.vPool.release(n)
				}
				n = next
			}
			lt.buckets[b] = keep
		}
	}
	for i := range m.mLevels {
		lt := &m.mLevels[i]
		for b, head := range lt.buckets {
			var keep *MNode
			for n := head; n != nil; {
				next := n.next
				if n.gen == m.gcGen {
					n.next = keep
					keep = n
				} else {
					lt.count--
					m.mPool.release(n)
				}
				n = next
			}
			lt.buckets[b] = keep
		}
	}

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
// by bumping the cache generation — O(1), no reallocation. Safe at any time;
// only costs recomputation.
func (m *Manager) ClearCaches() {
	m.cacheGen++
	if m.cacheGen == 0 {
		// Generation counter wrapped: entries stamped 0 (the zero value)
		// must not read as live, so physically clear once per 2^32 clears.
		clear(m.addCache)
		clear(m.maddCache)
		clear(m.mulCache)
		clear(m.mmCache)
		clear(m.ipCache)
		m.cacheGen = 1
	}
	// Rebase the grow-under-pressure baselines: the cold misses that follow
	// an invalidation are churn, not capacity pressure, and must not ratchet
	// the caches toward their max size. Growth now requires a single cache
	// generation to accumulate the full miss budget.
	m.addMissMark = m.addStats.Misses
	m.maddMissMark = m.maddStats.Misses
	m.mulMissMark = m.mulStats.Misses
	m.mmMissMark = m.mmStats.Misses
	m.ipMissMark = m.ipStats.Misses
}
