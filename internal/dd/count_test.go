package dd

import (
	"math"
	"math/rand"
	"testing"
)

func TestCountVAcrossStampWrap(t *testing.T) {
	// A stamp handed out once comes round again only when the counter
	// wraps. The wrap must clear the stamps that nodes no walk reached
	// since still carry, or a node stamped 2^32 walks ago reads as visited.
	rng := rand.New(rand.NewSource(9))
	m := New()
	a, _ := randomState(t, m, 7, rng)
	b, _ := randomState(t, m, 6, rng)
	wantA, wantB := CountVNodes(a), CountVNodes(b)
	counts := []struct {
		name string
		got  func() int
		want int
	}{
		{"a, stamp 1", func() int { return m.CountV(a) }, wantA},
		{"b, stamp 2^32-1", func() int { return m.CountV(b) }, wantB},
		{"a, wrapped to stamp 1", func() int { return m.CountV(a) }, wantA},
		{"b, stamp 2", func() int { return m.CountV(b) }, wantB},
		{"a, stamp 3", func() int { return m.CountV(a) }, wantA},
	}
	for i, c := range counts {
		if i == 1 {
			m.walkStamp = math.MaxUint32 - 1 // skip the walks in between
		}
		if got := c.got(); got != c.want {
			t.Fatalf("count of %s = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestNumberVNodes(t *testing.T) {
	// NumberVNodes lists CollectVNodes' depth-first order and numbers each
	// node with its index, also when one walk follows another.
	rng := rand.New(rand.NewSource(4))
	m := New()
	var buf []*VNode
	for trial := 0; trial < 5; trial++ {
		e, _ := randomState(t, m, 3+trial, rng)
		m.CountV(e)
		buf = m.NumberVNodes(buf[:0], e)
		want := CollectVNodes(e)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: %d nodes, want %d", trial, len(buf), len(want))
		}
		for i, n := range buf {
			if n != want[i] || n.Ord() != i {
				t.Fatalf("trial %d: node %d is id %d with Ord %d, want id %d", trial, i, n.ID(), n.Ord(), want[i].ID())
			}
		}
	}
}
