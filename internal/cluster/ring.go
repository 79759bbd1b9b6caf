package cluster

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/cnum"
)

// Ring is a consistent-hash ring over a fixed set of backends. Each backend
// owns VNodes points on a uint64 circle; a key is served by the backend
// owning the first point at or clockwise of it. Virtual nodes smooth the
// per-backend share of the key space, and consistency means adding or
// removing one backend only remaps the hash ranges it owned — every other
// backend's result cache stays hot.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	points []ringPoint
	n      int
}

type ringPoint struct {
	hash uint64
	idx  int
}

// NewRing builds a ring over n backends identified by name (names must be
// distinct — they, not positions, determine ring placement, so a stable
// naming scheme keeps the mapping stable across restarts). vnodes <= 0
// selects 64 points per backend.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend")
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{points: make([]ringPoint, 0, len(names)*vnodes), n: len(names)}
	for i, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate backend name %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			h.Write([]byte(name))
			h.Write([]byte{'#'})
			h.Write([]byte(strconv.Itoa(v)))
			// FNV alone clusters similar inputs ("b0#1" vs "b0#2"); the
			// SplitMix64 finalizer spreads the points uniformly around the
			// circle, which is what bounds per-backend load skew.
			r.points = append(r.points, ringPoint{hash: cnum.Mix64(h.Sum64()), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].idx < r.points[b].idx
	})
	return r, nil
}

// Primary returns the backend index owning key.
func (r *Ring) Primary(key uint64) int {
	return r.points[r.at(key)].idx
}

// Order returns every backend index in ring order starting from key's
// owner: element 0 is the primary, the rest are the failover sequence. The
// returned slice is freshly allocated.
func (r *Ring) Order(key uint64) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i, p := 0, r.at(key); len(out) < r.n && i < len(r.points); i, p = i+1, p+1 {
		if p == len(r.points) {
			p = 0
		}
		if idx := r.points[p].idx; !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}

// at returns the index of the first ring point at or after key (wrapping).
func (r *Ring) at(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Key maps a canonical content hash (hex sha256 from serve.CanonicalHash)
// onto the ring's key space using its leading 64 bits. Non-hex input (which
// a well-formed submission can never produce) falls back to hashing the
// whole string, so Key is total.
func Key(contentHash string) uint64 {
	if len(contentHash) >= 16 {
		if raw, err := hex.DecodeString(contentHash[:16]); err == nil {
			var k uint64
			for _, b := range raw {
				k = k<<8 | uint64(b)
			}
			return k
		}
	}
	h := fnv.New64a()
	h.Write([]byte(contentHash))
	return h.Sum64()
}
