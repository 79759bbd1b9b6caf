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

// tableNode is what the unique tables need of a node kind: a pointer to
// the node header it embeds.
type tableNode[T any] interface {
	*T
	header() *nodeHeader[T]
}

// levelTable is the unique table for one variable of one node kind.
type levelTable[T any, P tableNode[T]] struct {
	buckets []*T
	count   int
}

// link interns n, whose children the caller has set, as the node of level
// v with hash h, numbered id and live in GC generation gen: the one place a
// node of either kind enters a unique table. hd is n's header, passed in to
// spare this per-creation path an indirect call through P.
func (t *levelTable[T, P]) link(n *T, hd *nodeHeader[T], v int32, h, id uint64, gen uint32) {
	idx := h & uint64(len(t.buckets)-1)
	*hd = nodeHeader[T]{id: id, hash: h, next: t.buckets[idx], gen: gen, Var: v}
	t.buckets[idx] = n
	t.count++
	if t.count > uniqueMaxLoad*len(t.buckets) {
		t.grow()
	}
}

func (t *levelTable[T, P]) grow() {
	nb := make([]*T, 2*len(t.buckets))
	mask := uint64(len(nb) - 1)
	for _, n := range t.buckets {
		for n != nil {
			h := P(n).header()
			next := h.next
			idx := h.hash & mask
			h.next = nb[idx]
			nb[idx] = n
			n = next
		}
	}
	t.buckets = nb
}

// sweep unlinks every node not stamped live in generation gen and releases
// it to pool.
func (t *levelTable[T, P]) sweep(gen uint32, pool *nodePool[T]) {
	for b, n := range t.buckets {
		var keep *T
		for n != nil {
			h := P(n).header()
			next := h.next
			if h.gen == gen {
				h.next = keep
				keep = n
			} else {
				t.count--
				pool.release(n)
			}
			n = next
		}
		t.buckets[b] = keep
	}
}

// uniqueTable holds one node kind's level tables and the pool that feeds
// them.
type uniqueTable[T any, P tableNode[T]] struct {
	levels []levelTable[T, P]
	pool   nodePool[T]
}

// level returns the table for variable v, growing the level slice on demand.
func (u *uniqueTable[T, P]) level(v int32) *levelTable[T, P] {
	for int(v) >= len(u.levels) {
		u.levels = append(u.levels, levelTable[T, P]{buckets: make([]*T, uniqueInitialBuckets)})
	}
	return &u.levels[v]
}

// live returns the number of nodes interned across all levels.
func (u *uniqueTable[T, P]) live() int {
	total := 0
	for i := range u.levels {
		total += u.levels[i].count
	}
	return total
}

// created returns the number of nodes ever interned: every pool allocation
// is linked, so it is the chunk slots handed out plus the recycled ones.
func (u *uniqueTable[T, P]) created() uint64 {
	return uint64(u.pool.allocated) + u.pool.recycled
}

// sweep releases every node not stamped live in generation gen.
func (u *uniqueTable[T, P]) sweep(gen uint32) {
	for i := range u.levels {
		u.levels[i].sweep(gen, &u.pool)
	}
}

// resetWalks clears every interned node's visit stamp.
func (u *uniqueTable[T, P]) resetWalks() {
	for i := range u.levels {
		for _, n := range u.levels[i].buckets {
			for n != nil {
				h := P(n).header()
				h.walk = 0
				n = h.next
			}
		}
	}
}

// vLookupInsert interns the node (v; e0, e1) — the children must already be
// canonical — returning an existing node or allocating one from the pool.
func (m *Manager) vLookupInsert(v int32, e0, e1 VEdge) *VNode {
	h := vNodeHash(e0, e1)
	lt := m.vNodes.level(v)
	for n := lt.buckets[h&uint64(len(lt.buckets)-1)]; n != nil; n = n.next {
		if n.hash == h && n.E[0].W == e0.W && n.E[0].N == e0.N &&
			n.E[1].W == e1.W && n.E[1].N == e1.N {
			return n
		}
	}
	n := m.vNodes.pool.alloc()
	n.E = [2]VEdge{e0, e1}
	lt.link(n, &n.nodeHeader, v, h, m.newID(), m.gcGen)
	return n
}

// mLookupInsert is vLookupInsert for matrix nodes.
func (m *Manager) mLookupInsert(v int32, e *[4]MEdge) *MNode {
	h := mNodeHash(e)
	lt := m.mNodes.level(v)
next:
	for n := lt.buckets[h&uint64(len(lt.buckets)-1)]; n != nil; n = n.next {
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
	n := m.mNodes.pool.alloc()
	n.E = *e
	lt.link(n, &n.nodeHeader, v, h, m.newID(), m.gcGen)
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
