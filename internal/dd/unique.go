package dd

import "repro/internal/cnum"

// Per-variable hashed unique tables with intrusive bucket chains, and the
// node pools feeding them. The design follows production DD packages
// (MQT's dd_package): a node's identity key is (variable, child weights,
// child nodes); the variable selects the table, a 64-bit hash of the
// children selects the bucket, and the chain hanging off the bucket is
// walked with exact pointer compares. Hashes are built from interned-weight
// hashes (cnum.Value.Hash) and child node ids — never raw pointers — so
// bucket order, sweep order, and therefore freed-node recycling order are
// deterministic and results stay bit-identical across runs and worker
// counts.

const (
	// uniqueInitialBuckets is the starting bucket count of each per-variable
	// table (always a power of two).
	uniqueInitialBuckets = 256
	// uniqueMaxLoad is the average chain length that triggers a bucket-array
	// doubling.
	uniqueMaxLoad = 2
	// poolChunk is the number of nodes allocated per pool chunk.
	poolChunk = 2048
)

// hashCombine folds x into the running hash h (boost::hash_combine style);
// callers finish with hashFinish so low bits (used for power-of-two
// masking) depend on every input.
func hashCombine(h, x uint64) uint64 {
	h ^= x + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	return h
}

// hashFinish applies the shared SplitMix64 finalizer.
func hashFinish(h uint64) uint64 { return cnum.Mix64(h) }

func vNodeHash(e0, e1 VEdge) uint64 {
	h := hashCombine(0, e0.W.Hash())
	h = hashCombine(h, e0.N.id)
	h = hashCombine(h, e1.W.Hash())
	h = hashCombine(h, e1.N.id)
	return hashFinish(h)
}

func mNodeHash(e *[4]MEdge) uint64 {
	var h uint64
	for i := range e {
		h = hashCombine(h, e[i].W.Hash())
		h = hashCombine(h, e[i].N.id)
	}
	return hashFinish(h)
}

// vLevelTable is the unique table for one variable of the vector DD.
type vLevelTable struct {
	buckets []*VNode
	count   int
}

// mLevelTable is the unique table for one variable of the matrix DD.
type mLevelTable struct {
	buckets []*MNode
	count   int
}

func (t *vLevelTable) grow() {
	nb := make([]*VNode, 2*len(t.buckets))
	mask := uint64(len(nb) - 1)
	for _, head := range t.buckets {
		for n := head; n != nil; {
			next := n.next
			idx := n.hash & mask
			n.next = nb[idx]
			nb[idx] = n
			n = next
		}
	}
	t.buckets = nb
}

func (t *mLevelTable) grow() {
	nb := make([]*MNode, 2*len(t.buckets))
	mask := uint64(len(nb) - 1)
	for _, head := range t.buckets {
		for n := head; n != nil; {
			next := n.next
			idx := n.hash & mask
			n.next = nb[idx]
			nb[idx] = n
			n = next
		}
	}
	t.buckets = nb
}

// vLiveCount returns the number of vector nodes interned across all levels.
func (m *Manager) vLiveCount() int {
	total := 0
	for i := range m.vLevels {
		total += m.vLevels[i].count
	}
	return total
}

// mLiveCount returns the number of matrix nodes interned across all levels.
func (m *Manager) mLiveCount() int {
	total := 0
	for i := range m.mLevels {
		total += m.mLevels[i].count
	}
	return total
}

// vLevel returns the table for variable v, growing the level slice on demand.
func (m *Manager) vLevel(v int32) *vLevelTable {
	for int(v) >= len(m.vLevels) {
		m.vLevels = append(m.vLevels, vLevelTable{buckets: make([]*VNode, uniqueInitialBuckets)})
	}
	return &m.vLevels[v]
}

func (m *Manager) mLevel(v int32) *mLevelTable {
	for int(v) >= len(m.mLevels) {
		m.mLevels = append(m.mLevels, mLevelTable{buckets: make([]*MNode, uniqueInitialBuckets)})
	}
	return &m.mLevels[v]
}

// vLookupInsert interns the node (v; e0, e1) — the children must already be
// canonical — returning an existing node or allocating one from the pool.
func (m *Manager) vLookupInsert(v int32, e0, e1 VEdge) *VNode {
	h := vNodeHash(e0, e1)
	lt := m.vLevel(v)
	idx := h & uint64(len(lt.buckets)-1)
	for n := lt.buckets[idx]; n != nil; n = n.next {
		if n.hash == h && n.E[0].W == e0.W && n.E[0].N == e0.N &&
			n.E[1].W == e1.W && n.E[1].N == e1.N {
			return n
		}
	}
	n := m.vPool.alloc()
	n.id = m.newID()
	n.hash = h
	n.gen = m.gcGen
	n.Var = v
	n.E = [2]VEdge{e0, e1}
	n.next = lt.buckets[idx]
	lt.buckets[idx] = n
	lt.count++
	m.vNodesCreated++
	if lt.count > uniqueMaxLoad*len(lt.buckets) {
		lt.grow()
	}
	return n
}

// mLookupInsert is vLookupInsert for matrix nodes.
func (m *Manager) mLookupInsert(v int32, e *[4]MEdge) *MNode {
	h := mNodeHash(e)
	lt := m.mLevel(v)
	idx := h & uint64(len(lt.buckets)-1)
next:
	for n := lt.buckets[idx]; n != nil; n = n.next {
		if n.hash != h {
			continue
		}
		for i := range e {
			if n.E[i].W != e[i].W || n.E[i].N != e[i].N {
				continue next
			}
		}
		return n
	}
	n := m.mPool.alloc()
	n.id = m.newID()
	n.hash = h
	n.gen = m.gcGen
	n.Var = v
	n.E = *e
	n.next = lt.buckets[idx]
	lt.buckets[idx] = n
	lt.count++
	m.mNodesCreated++
	if lt.count > uniqueMaxLoad*len(lt.buckets) {
		lt.grow()
	}
	return n
}

// nodePool hands out nodes from chunked arrays, recycling swept nodes
// through a LIFO free stack (the last node swept is the first reused).
type nodePool[T any] struct {
	cur       []T
	next      int
	free      []*T
	allocated int    // nodes ever handed to a chunk slot
	recycled  uint64 // nodes served from the free stack
}

func (p *nodePool[T]) alloc() *T {
	if k := len(p.free) - 1; k >= 0 {
		n := p.free[k]
		p.free = p.free[:k]
		p.recycled++
		return n
	}
	if p.next == len(p.cur) {
		p.cur = make([]T, poolChunk)
		p.next = 0
	}
	n := &p.cur[p.next]
	p.next++
	p.allocated++
	return n
}

// release zeroes a swept node and pushes it on the free stack. Zeroing
// clears its child edges, so a pooled node does not pin other nodes' chunks
// or interned weights beyond the table's own retention.
func (p *nodePool[T]) release(n *T) {
	var zero T
	*n = zero
	p.free = append(p.free, n)
}
