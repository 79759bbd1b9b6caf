package dd

import (
	"math"
	"testing"
)

// TestComputeCacheGrowthEvictionAndWrap drives one compute cache (the
// inner-product cache, on synthetic nodes) through its bounded-memory
// policy: doubling only once misses pass cacheGrowMissFactor × size and
// never past the cap, eviction counting, the miss-mark rebase on
// ClearCaches, and the physical clear when the generation wraps.
func TestComputeCacheGrowthEvictionAndWrap(t *testing.T) {
	nodes := make([]VNode, 4096)
	for i := range nodes {
		nodes[i].id = uint64(i + 1)
	}
	key := func(i, j int) ipKey { return ipKey{&nodes[i], &nodes[j]} }
	m := New()
	c := &m.ip
	// probe makes c miss on never-stored keys until its miss count is n.
	probe := func(n uint64) {
		for j := 0; c.stats.Misses < n; j++ {
			k := key(1+j%(len(nodes)-1), 0)
			if _, ok := c.lookup(k, k.hash()); ok {
				t.Fatalf("never-stored key %v hit", k)
			}
		}
	}
	store := func(k ipKey, v complex128) { c.store(k, k.hash(), v) }
	hits := func(k ipKey) bool { _, ok := c.lookup(k, k.hash()); return ok }

	k0 := key(0, 0)
	store(k0, 1)
	probe(cacheGrowMissFactor * cacheInitialSize)
	store(key(0, 1), 2)
	if len(c.entries) != cacheInitialSize {
		t.Fatalf("grew at %d misses, want growth only past %d", c.stats.Misses, cacheGrowMissFactor*cacheInitialSize)
	}
	probe(cacheGrowMissFactor*cacheInitialSize + 1)
	store(key(0, 2), 3)
	if len(c.entries) != 2*cacheInitialSize || c.missMark != c.stats.Misses {
		t.Fatalf("after %d misses: size %d mark %d, want size %d mark %d",
			c.stats.Misses, len(c.entries), c.missMark, 2*cacheInitialSize, c.stats.Misses)
	}
	if !hits(k0) {
		t.Fatal("live entry lost when the cache doubled")
	}
	for len(c.entries) < ipCacheMax {
		size := len(c.entries)
		probe(c.missMark + uint64(cacheGrowMissFactor*size) + 1)
		store(key(0, 3), 4)
		if len(c.entries) != 2*size {
			t.Fatalf("size %d did not double past its miss budget", size)
		}
	}
	probe(c.missMark + uint64(cacheGrowMissFactor*ipCacheMax) + 1)
	store(key(0, 3), 4)
	if len(c.entries) != ipCacheMax {
		t.Fatalf("cache grew to %d past its cap %d", len(c.entries), ipCacheMax)
	}

	// Overwriting a live entry for a different key counts one eviction;
	// filling a slot whose entry is stale counts none.
	mask := uint64(len(c.entries) - 1)
	kc := k0
	for j := 1; kc.hash()&mask != k0.hash()&mask || kc == k0; j++ {
		kc = key(j%len(nodes), 1+j/len(nodes))
	}
	if !hits(k0) {
		t.Fatal("k0 lost before the collision check")
	}
	ev := c.stats.Evictions
	store(kc, 5)
	if c.stats.Evictions != ev+1 || hits(k0) || !hits(kc) {
		t.Fatalf("colliding store: evictions %d -> %d, want one, and only the new key live", ev, c.stats.Evictions)
	}
	m.ClearCaches()
	store(k0, 1)
	if c.stats.Evictions != ev+1 {
		t.Fatal("store over an invalidated entry counted an eviction")
	}

	// ClearCaches rebases the miss mark: the cold misses of a new generation
	// are not capacity pressure.
	m = New()
	c = &m.ip
	probe(cacheGrowMissFactor*cacheInitialSize + 1)
	m.ClearCaches()
	if c.missMark != c.stats.Misses {
		t.Fatalf("ClearCaches left the miss mark at %d, misses %d", c.missMark, c.stats.Misses)
	}
	store(k0, 1)
	if len(c.entries) != cacheInitialSize {
		t.Fatalf("misses from before ClearCaches grew the cache to %d", len(c.entries))
	}

	// Generation wrap: an entry from generation 1 must not read as live
	// when the counter wraps back to 1.
	m = New()
	c = &m.ip
	store(k0, 1)
	m.add.gen, m.madd.gen, m.mul.gen, m.mm.gen, m.ip.gen =
		math.MaxUint32, math.MaxUint32, math.MaxUint32, math.MaxUint32, math.MaxUint32
	m.ClearCaches()
	if gens := [5]uint32{m.add.gen, m.madd.gen, m.mul.gen, m.mm.gen, m.ip.gen}; gens != [5]uint32{1, 1, 1, 1, 1} {
		t.Fatalf("generations after wrap %v, want all 1", gens)
	}
	if hits(k0) {
		t.Fatal("pre-wrap entry hit after the generation wrapped")
	}
}
