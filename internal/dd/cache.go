package dd

import "repro/internal/cnum"

// Power-of-two compute caches with overwrite-on-collision eviction. Each
// entry carries a generation tag; ClearCaches bumps every cache's
// generation, instantly invalidating its entries without touching memory.
// Caches start small (fresh managers are cheap, a per-job pattern the batch
// engine relies on) and double under miss pressure up to a fixed cap, so
// cache memory stays bounded no matter how long a manager lives. Entries
// key on node pointers (valid within a generation — recycling only happens
// in Cleanup, which bumps the generation) but hash on node ids and
// interned-weight hashes, so cache behaviour, and hence the order weights
// are interned in, is deterministic across runs.

const (
	// cacheInitialSize is each cache's starting entry count.
	cacheInitialSize = 1 << 10
	// addCacheMax / mulCacheMax bound the hot vector caches; the matrix and
	// inner-product caches stay smaller.
	addCacheMax  = 1 << 15
	maddCacheMax = 1 << 13
	mulCacheMax  = 1 << 15
	mmCacheMax   = 1 << 13
	ipCacheMax   = 1 << 13
	// cacheGrowMissFactor: a cache doubles when the misses accumulated since
	// its last resize exceed this multiple of its size.
	cacheGrowMissFactor = 4
)

// CacheStats counts one compute cache's lookups and evictions.
type CacheStats struct {
	Hits, Misses uint64
	// Evictions counts stores that overwrote a live entry for a different
	// key (the cost of the bounded-memory eviction policy).
	Evictions uint64
}

// HitRatio returns Hits/(Hits+Misses), or 0 when the cache was never probed.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func cacheHash(vals ...uint64) uint64 {
	var h uint64
	for _, v := range vals {
		h = hashCombine(h, v)
	}
	return hashFinish(h)
}

// cacheKey is a compute-cache key: operand node pointers (and, for the
// additions, the interned weight ratio), hashed on ids and weight hashes.
type cacheKey interface {
	comparable
	hash() uint64
}

// Operand keys of the five compute caches: vector addition, matrix
// addition, matrix-vector multiplication, matrix-matrix multiplication and
// the inner product.
type (
	addKey struct {
		a, b *VNode
		r    *cnum.Value
	}
	maddKey struct {
		a, b *MNode
		r    *cnum.Value
	}
	mulKey struct {
		m *MNode
		v *VNode
	}
	mmKey struct{ a, b *MNode }
	ipKey struct{ a, b *VNode }
)

func (k addKey) hash() uint64  { return cacheHash(k.a.id, k.b.id, k.r.Hash()) }
func (k maddKey) hash() uint64 { return cacheHash(k.a.id, k.b.id, k.r.Hash()) }
func (k mulKey) hash() uint64  { return cacheHash(k.m.id, k.v.id) }
func (k mmKey) hash() uint64   { return cacheHash(k.a.id, k.b.id) }
func (k ipKey) hash() uint64   { return cacheHash(k.a.id, k.b.id) }

type cacheEntry[K cacheKey, V any] struct {
	key K
	res V
	gen uint32
}

// computeCache is one bounded compute cache. An entry is live when its gen
// equals the cache's; missMark records the miss count at the last resize
// (or invalidation), driving the grow-under-pressure policy.
type computeCache[K cacheKey, V any] struct {
	entries  []cacheEntry[K, V]
	max      int
	gen      uint32
	missMark uint64
	stats    CacheStats
}

func newComputeCache[K cacheKey, V any](max int) computeCache[K, V] {
	return computeCache[K, V]{entries: make([]cacheEntry[K, V], cacheInitialSize), max: max, gen: 1}
}

// lookup returns the live result stored for k. h must be k.hash(): callers
// compute it once, on the concrete key type, for the lookup/store pair.
func (c *computeCache[K, V]) lookup(k K, h uint64) (V, bool) {
	e := &c.entries[h&uint64(len(c.entries)-1)]
	if e.gen == c.gen && e.key == k {
		c.stats.Hits++
		return e.res, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// store records res for k (h = k.hash()), first doubling the cache if its
// misses since the last resize exceed cacheGrowMissFactor × its size.
func (c *computeCache[K, V]) store(k K, h uint64, res V) {
	if n := len(c.entries); n < c.max && c.stats.Misses-c.missMark > uint64(cacheGrowMissFactor*n) {
		c.grow()
		c.missMark = c.stats.Misses
	}
	e := &c.entries[h&uint64(len(c.entries)-1)]
	if e.gen == c.gen {
		c.stats.Evictions++
	}
	*e = cacheEntry[K, V]{key: k, res: res, gen: c.gen}
}

// grow doubles the cache, rehashing its live entries into the new array in
// index order (a later entry wins a collision), so growth replays
// identically on every run and hot results survive it.
func (c *computeCache[K, V]) grow() {
	ne := make([]cacheEntry[K, V], 2*len(c.entries))
	mask := uint64(len(ne) - 1)
	for i := range c.entries {
		if e := &c.entries[i]; e.gen == c.gen {
			ne[e.key.hash()&mask] = *e
		}
	}
	c.entries = ne
}

// invalidate drops every entry by bumping the generation — O(1), no
// reallocation — and rebases the grow-under-pressure baseline: the cold
// misses that follow an invalidation are churn, not capacity pressure, and
// must not ratchet the cache toward its max size. Growth therefore needs a
// single generation to accumulate the full miss budget.
func (c *computeCache[K, V]) invalidate() {
	c.gen++
	if c.gen == 0 {
		// Generation counter wrapped: entries stamped with a pre-wrap
		// generation (or 0, the zero value) must not read as live, so
		// physically clear once per 2^32 invalidations.
		clear(c.entries)
		c.gen = 1
	}
	c.missMark = c.stats.Misses
}
