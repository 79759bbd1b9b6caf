package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// CacheStats reports result-cache effectiveness, surfaced on /v1/stats.
type CacheStats struct {
	// Entries and Capacity are the current and maximum entry counts.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits, Misses, and Evictions count lookups served from the cache,
	// lookups that fell through to a fresh simulation, and entries dropped
	// by the LRU bound.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// lru is a mutex-guarded map bounded to capacity entries (≤ 0 holds
// nothing) that evicts the least recently used entry first. It grows
// lazily: an empty lru holds no entries' worth of memory.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *lruEntry
	entries  map[K]*list.Element

	hits, misses, evictions int64
}

type lruEntry[K comparable, V any] struct {
	key   K
	value V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[K]*list.Element),
	}
}

// get returns the value stored under key and bumps it to most recently
// used. Every call counts as a hit or a miss.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).value, true
	}
	c.misses++
	var zero V
	return zero, false
}

// put stores value under key, evicting least-recently-used entries beyond
// the capacity. Re-putting an existing key refreshes its value and recency.
func (c *lru[K, V]) put(key K, value V) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[K, V]).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[K, V]{key: key, value: value})
	for len(c.entries) > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K, V]).key)
		c.evictions++
	}
}

func (c *lru[K, V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// resultCache maps canonical circuit+options hashes to the exact marshaled
// result payload served for that submission. Storing the serialized bytes
// (rather than re-marshaling a struct) makes cache hits byte-identical to
// the original response.
type resultCache = lru[string, []byte]

func newResultCache(capacity int) *resultCache { return newLRU[string, []byte](capacity) }

// MemoEntry is what a submission body resolved to.
type MemoEntry struct {
	// Hash is the body's canonical content hash (CanonicalHash).
	Hash string
	// Name is the request's job name (set by the simulation server only).
	Name string
}

// BodyMemo maps the SHA-256 of a raw POST /v1/jobs body to what resolving
// that body produced, so a repeated body skips JSON decoding, circuit
// parsing and hashing. Callers put only bodies that resolved successfully:
// a rejected body always takes the full path and gets the same error.
// Nothing in it comes from the client but the body bytes themselves. It
// holds at most its capacity entries (≤ 0: none), least recently used out
// first, and grows lazily. Safe for concurrent use.
type BodyMemo struct {
	entries *lru[[sha256.Size]byte, MemoEntry]
}

// NewBodyMemo returns an empty memo bounded to capacity entries.
func NewBodyMemo(capacity int) *BodyMemo {
	return &BodyMemo{entries: newLRU[[sha256.Size]byte, MemoEntry](capacity)}
}

// Get returns the entry remembered for the body whose SHA-256 is key.
func (m *BodyMemo) Get(key [sha256.Size]byte) (MemoEntry, bool) {
	return m.entries.get(key)
}

// Put remembers e for the body whose SHA-256 is key. Put only bodies that
// resolved successfully.
func (m *BodyMemo) Put(key [sha256.Size]byte, e MemoEntry) {
	m.entries.put(key, e)
}
