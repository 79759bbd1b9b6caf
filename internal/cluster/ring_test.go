package cluster

import (
	"fmt"
	"slices"
	"testing"
)

// TestRingOrderGolden pins the ring layout bit for bit: the point hashes of
// a one-point-per-backend ring, and the failover order of fixed keys on the
// default 64-point ring. simd-router routes by these orders, so a change to
// the point hash would move cached results to other backends.
func TestRingOrderGolden(t *testing.T) {
	r, err := NewRing([]string{"b0", "b1", "b2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := []ringPoint{
		{0x4a4195b3922a10e7, 1},
		{0x8a65293bba260ff7, 0},
		{0xbc8a2136f2fe6bb6, 2},
	}
	if !slices.Equal(r.points, wantPoints) {
		t.Errorf("one-point ring = %#x, want %#x", r.points, wantPoints)
	}
	for _, tc := range []struct {
		names []string
		key   uint64
		want  []int
	}{
		{[]string{"b0", "b1", "b2"}, 0, []int{0, 1, 2}},
		{[]string{"b0", "b1", "b2"}, 0x0123456789abcdef, []int{1, 0, 2}},
		{[]string{"b0", "b1", "b2"}, 0x7fffffffffffffff, []int{0, 2, 1}},
		{[]string{"b0", "b1", "b2"}, 0xdeadbeefcafef00d, []int{2, 1, 0}},
		{[]string{"b0", "b1", "b2"}, 0xffffffffffffffff, []int{0, 1, 2}},
		{[]string{"http://127.0.0.1:9001", "http://127.0.0.1:9002"}, 0x0123456789abcdef, []int{1, 0}},
		{[]string{"http://127.0.0.1:9001", "http://127.0.0.1:9002"}, 0xffffffffffffffff, []int{0, 1}},
	} {
		r, err := NewRing(tc.names, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Order(tc.key); !slices.Equal(got, tc.want) {
			t.Errorf("%v: Order(%#x) = %v, want %v", tc.names, tc.key, got, tc.want)
		}
	}
}

func TestRingOrderCoversAllBackendsOnce(t *testing.T) {
	names := []string{"b0", "b1", "b2", "b3", "b4"}
	r, err := NewRing(names, 64)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 1000; key += 37 {
		order := r.Order(key * 0x9E3779B97F4A7C15)
		if len(order) != len(names) {
			t.Fatalf("order length %d, want %d", len(order), len(names))
		}
		seen := map[int]bool{}
		for _, idx := range order {
			if idx < 0 || idx >= len(names) || seen[idx] {
				t.Fatalf("order %v repeats or escapes range", order)
			}
			seen[idx] = true
		}
		if order[0] != r.Primary(key*0x9E3779B97F4A7C15) {
			t.Fatalf("order[0] %d != Primary %d", order[0], r.Primary(key))
		}
	}
}

func TestRingDistributionRoughlyUniform(t *testing.T) {
	names := make([]string, 4)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
	}
	r, err := NewRing(names, 128)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(names))
	const samples = 20000
	x := uint64(12345)
	for i := 0; i < samples; i++ {
		// SplitMix64 stream stands in for content-hash keys.
		x += 0x9E3779B97F4A7C15
		z := x
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		counts[r.Primary(z)]++
	}
	for i, c := range counts {
		share := float64(c) / samples
		if share < 0.10 || share > 0.45 {
			t.Errorf("backend %d owns %.1f%% of the key space (counts %v)", i, 100*share, counts)
		}
	}
}

// TestRingConsistency pins the "consistent" in consistent hashing: dropping
// one backend must only remap the keys it owned — every key owned by a
// surviving backend keeps its owner.
func TestRingConsistency(t *testing.T) {
	all := []string{"b0", "b1", "b2", "b3"}
	rAll, err := NewRing(all, 64)
	if err != nil {
		t.Fatal(err)
	}
	rLess, err := NewRing(all[:3], 64) // b3 removed
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const samples = 5000
	for i := 0; i < samples; i++ {
		key := uint64(i) * 0x9E3779B97F4A7C15
		before := rAll.Primary(key)
		after := rLess.Primary(key)
		if before != 3 && before != after {
			t.Fatalf("key %d moved %d -> %d though its owner survived", key, before, after)
		}
		if before == 3 {
			moved++
		}
	}
	if moved == 0 || moved > samples/2 {
		t.Errorf("removed backend owned %d/%d keys; expected a ~quarter share", moved, samples)
	}
}

func TestRingRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 64); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestKeyParsesHexPrefix(t *testing.T) {
	if k := Key("00000000000000ff" + "aa"); k != 0xff {
		t.Errorf("Key parsed %x, want ff", k)
	}
	// Non-hex input still maps somewhere deterministic.
	if Key("not-hex!") != Key("not-hex!") {
		t.Error("fallback key not deterministic")
	}
}
