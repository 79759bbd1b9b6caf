package dd

import (
	"math/rand"
	"testing"
)

// TestCleanupKeepsRootEdgesValid asserts the mark-sweep collector's core
// contract: edges passed as roots survive a sweep bit-identically, while
// everything else is recycled.
func TestCleanupKeepsRootEdgesValid(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(11))
	n := 6

	keep, err := m.FromAmplitudes(randomAmplitudes(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	g := m.MakeGateDD(n, gateH, 3, PosControl(5))
	want := m.ToVector(keep, n)

	// Garbage: states and gates not passed as roots.
	for i := 0; i < 8; i++ {
		if _, err := m.FromAmplitudes(randomAmplitudes(n, rng)); err != nil {
			t.Fatal(err)
		}
		m.MakeGateDD(n, gateT, i%n)
	}

	liveBefore := m.Pool().Live
	m.Cleanup([]VEdge{keep}, []MEdge{g})
	pool := m.Pool()
	if pool.Live >= liveBefore {
		t.Fatalf("sweep freed nothing: live %d -> %d", liveBefore, pool.Live)
	}
	if pool.Free == 0 {
		t.Fatal("sweep left the free stacks empty despite garbage")
	}

	got := m.ToVector(keep, n)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("root amplitude[%d] changed across Cleanup: %v != %v", i, got[i], want[i])
		}
	}
	// The kept root and gate must still work together on the swept manager.
	res := m.MulVec(g, keep)
	if m.IsVZero(res) {
		t.Fatal("gate application on kept root vanished after Cleanup")
	}
}

// TestCleanupRecyclesPooledNodes asserts that a build identical to swept
// garbage is served from the pool free stacks: the recycled counter rises and
// pool capacity stays flat instead of allocating new chunks. Over several
// cycles every pool slot is either live or free, and reuse is LIFO: the
// node swept last is the first one handed out again.
func TestCleanupRecyclesPooledNodes(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(12))
	n := 8
	vec := randomAmplitudes(n, rng)
	checkSlots := func(when string) {
		t.Helper()
		if p := m.Pool(); p.Capacity != p.Live+p.Free {
			t.Fatalf("%s: capacity %d != live %d + free %d", when, p.Capacity, p.Live, p.Free)
		}
	}

	if _, err := m.FromAmplitudes(vec); err != nil {
		t.Fatal(err)
	}
	m.Cleanup(nil, nil)
	capBefore := m.Pool().Capacity
	recycledBefore := m.Stats().VNodesRecycled

	for cycle := 0; cycle < 4; cycle++ {
		if _, err := m.FromAmplitudes(vec); err != nil {
			t.Fatal(err)
		}
		checkSlots("after rebuild")
		if pool := m.Pool(); pool.Capacity != capBefore {
			t.Fatalf("cycle %d: identical rebuild grew the pool: capacity %d -> %d", cycle, capBefore, pool.Capacity)
		}
		m.Cleanup(nil, nil)
		checkSlots("after Cleanup")

		free := append([]*VNode(nil), m.vNodes.pool.free...)
		one := VEdge{W: m.CN.One, N: m.vTerminal}
		for i, e := range [][2]VEdge{{one, m.VZero()}, {m.VZero(), one}} {
			if got, want := m.MakeVNode(0, e[0], e[1]).N, free[len(free)-1-i]; got != want {
				t.Fatalf("cycle %d: creation %d reused %p, want %p (free stack top - %d)", cycle, i, got, want, i)
			}
		}
		m.Cleanup(nil, nil)
	}
	if st := m.Stats(); st.VNodesRecycled <= recycledBefore {
		t.Fatalf("identical rebuilds recycled no nodes (recycled %d -> %d)",
			recycledBefore, st.VNodesRecycled)
	}
}

// TestCleanupCycleIsAllocationFree pins the headline property of the pooled
// memory system: a steady-state build/Cleanup cycle touches only recycled
// pool nodes, pre-grown tables, and the warm weight table — no Go
// allocations at all.
func TestCleanupCycleIsAllocationFree(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(13))
	n := 9
	vec := randomAmplitudes(n, rng)

	cycle := func() {
		if _, err := m.FromAmplitudes(vec); err != nil {
			t.Fatal(err)
		}
		m.Cleanup(nil, nil)
	}
	// Warm up: grow unique tables and intern every weight once.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Errorf("steady-state build/Cleanup cycle allocates %.1f objects per run, want 0", allocs)
	}
}
