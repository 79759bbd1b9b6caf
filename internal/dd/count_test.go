package dd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// stampWalks builds, on m, vector states, mixed density matrices and a
// gate product without running any walk, and returns one stamped walk of
// each kind, each over a DD of its own, so that every walk's nodes carry
// that walk's stamp when the next one begins. Each walk's result compares
// with reflect.DeepEqual across managers built by the same call.
func stampWalks(t *testing.T, m *Manager) []stampWalk {
	t.Helper()
	const n = 5
	rng := rand.New(rand.NewSource(9))
	state := func(n int) VEdge {
		e, _ := randomState(t, m, n, rng)
		return e
	}
	mixed := func() MEdge {
		a, b := state(n), state(n)
		half := complex(0.5, 0)
		return m.AddMat(m.ScaleM(m.OuterProduct(a, a), half), m.ScaleM(m.OuterProduct(b, b), half))
	}
	a, b := state(n), state(n-1)
	rho1, rho2, rho3 := mixed(), mixed(), mixed()
	g := m.Identity(n)
	for _, tg := range randomGateSeq(n, 6, rng) {
		g = m.MulMat(m.MakeGateDD(n, tg.u, tg.target, tg.controls...), g)
	}
	return []stampWalk{
		{"CountV a", func() any { return m.CountV(a) }, func() any { return CountVNodes(a) }},
		{"CountM rho1", func() any { return m.CountM(rho1) }, func() any { return countMNodes(rho1) }},
		{"NumberVNodes b", func() any { return len(m.NumberVNodes(nil, b)) }, func() any { return len(CollectVNodes(b)) }},
		{"MTrace rho2", func() any { return m.MTrace(rho2) }, nil},
		{"ConjugateTranspose g", func() any { return m.ToMatrix(m.ConjugateTranspose(g), n) }, nil},
		{"SampleDiagonal rho3", func() any { return m.SampleDiagonal(rho3, n, 64, rand.New(rand.NewSource(5))) }, nil},
	}
}

// stampWalk is one stamped walk and, where one exists, the map-based walk
// it must agree with.
type stampWalk struct {
	name string
	walk func() any
	ref  func() any
}

// run returns the walk's result, or the value it panicked with (a stale
// stamp sends MTrace and ConjugateTranspose to a per-node result that the
// walk never stored).
func (w stampWalk) run() (res any) {
	defer func() {
		if r := recover(); r != nil {
			res = fmt.Sprint("panic: ", r)
		}
	}()
	return w.walk()
}

func TestCountVAcrossStampWrap(t *testing.T) {
	// A stamp handed out once comes round again only when the counter
	// wraps. The wrap must clear the stamps that nodes of both kinds still
	// carry, or a node stamped 2^32 walks ago reads as visited. Every walk
	// runs at stamps 1, 2, ... on a fresh manager, then, once the counter
	// wraps, at the same stamps again. Each must return its map-based
	// reference, or else what it returns as the only walk on a fresh
	// manager.
	var want []any
	for _, w := range stampWalks(t, New()) {
		if w.ref == nil {
			w.ref = w.run
		}
		want = append(want, w.ref())
	}
	m := New()
	walks := stampWalks(t, m)
	for pass, label := range []string{"first stamps", "wrapped stamps"} {
		if pass == 1 {
			m.walkStamp = math.MaxUint32 // skip the walks in between
		}
		for i, w := range walks {
			if got := w.run(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s, %s = %.80v, want %.80v", w.name, label, fmt.Sprint(got), fmt.Sprint(want[i]))
			}
		}
	}
}

func TestMixedKindWalks(t *testing.T) {
	// Vector and matrix walks share one stamp counter. Interleaved on one
	// manager in shuffled order, each walk must return what it returns as
	// the only walk on a fresh manager.
	m := New()
	walks := stampWalks(t, m)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 4; round++ {
		for _, i := range rng.Perm(len(walks)) {
			want := stampWalks(t, New())[i].run()
			if got := walks[i].run(); !reflect.DeepEqual(got, want) {
				t.Errorf("round %d: %s = %.80v, want %.80v", round, walks[i].name, fmt.Sprint(got), fmt.Sprint(want))
			}
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
