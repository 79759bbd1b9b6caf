package core

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dd"
)

// oracleContributions is the map-and-full-sort formulation of Definition 2
// that the node-indexed scratch replaced: contributions keyed by node,
// propagated over a level order produced by one full sort on (Var desc,
// ID asc). The scratch must match it bit for bit.
func oracleContributions(m *dd.Manager, e dd.VEdge) map[*dd.VNode]float64 {
	contrib := map[*dd.VNode]float64{}
	if m.IsVZero(e) || e.N == nil || e.N.IsTerminal() {
		return contrib
	}
	nodes := dd.CollectVNodes(e)
	slices.SortFunc(nodes, func(a, b *dd.VNode) int {
		if a.Var != b.Var {
			return cmp.Compare(b.Var, a.Var)
		}
		return cmp.Compare(a.ID(), b.ID())
	})
	contrib[e.N] = e.W.Abs2()
	for _, n := range nodes {
		c := contrib[n]
		if c == 0 {
			continue
		}
		for idx := 0; idx < 2; idx++ {
			child := n.E[idx]
			if child.N == nil || child.N.IsTerminal() || child.W.Abs2() == 0 {
				continue
			}
			contrib[child.N] += c * child.W.Abs2()
		}
	}
	return contrib
}

// oracleCandidates is the old candidate order: every contributing node but
// the root, fully sorted ascending by (contribution, ID).
func oracleCandidates(contrib map[*dd.VNode]float64, root *dd.VNode) []nodeContrib {
	var cands []nodeContrib
	for n, c := range contrib {
		if n != root {
			cands = append(cands, nodeContrib{n, c})
		}
	}
	slices.SortFunc(cands, func(a, b nodeContrib) int {
		if a.c != b.c {
			return cmp.Compare(a.c, b.c)
		}
		return cmp.Compare(a.n.ID(), b.n.ID())
	})
	return cands
}

// rebuildWith runs rebuild with the given per-node edits.
func rebuildWith(m *dd.Manager, e dd.VEdge, edits map[*dd.VNode]SubstituteKind) dd.VEdge {
	sc := getScratch()
	defer putScratch(sc)
	sc.nodes = m.NumberVNodes(sc.nodes, e)
	sc.resetEdits()
	for n, kind := range edits {
		sc.edits[n.Ord()] = kind
	}
	return rebuild(m, e, sc)
}

// uniformState spreads equal amplitudes over a random subset of the basis,
// so many nodes tie on contribution and the ID tie-break decides the order.
func uniformState(t *testing.T, m *dd.Manager, n int, fill float64, rng *rand.Rand) dd.VEdge {
	t.Helper()
	vec := make([]complex128, 1<<uint(n))
	k := 0
	for i := range vec {
		if rng.Float64() < fill {
			vec[i] = 1
			k++
		}
	}
	if k == 0 {
		vec[0], k = 1, 1
	}
	for i := range vec {
		vec[i] /= complex(math.Sqrt(float64(k)), 0)
	}
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// underflowChain builds an n-qubit state with a chain of unshared nodes
// hanging off ε-weight edges below the root: the chain's contributions
// shrink by ε² per level until they underflow, first to a node that is
// reached with contribution 0 and then to nodes reachable only through
// zero-contribution parents, which have no contribution at all.
func underflowChain(m *dd.Manager, n int, eps float64) dd.VEdge {
	one := dd.VEdge{W: m.CN.One, N: m.VTerminal()}
	zeros, chain := one, one // |0…0⟩ below the level, and the ε chain
	for v := int32(0); v < int32(n); v++ {
		chain = m.MakeVNode(v, zeros, m.ScaleV(chain, complex(eps, 0)))
		zeros = m.MakeVNode(v, zeros, m.VZero())
	}
	return m.NormalizeRootWeight(chain)
}

// equivalenceStates is the seeded state family the scratch is checked on.
func equivalenceStates(t *testing.T, m *dd.Manager) []dd.VEdge {
	rng := rand.New(rand.NewSource(26))
	var states []dd.VEdge
	for trial := 0; trial < 24; trial++ {
		n := 2 + rng.Intn(9)
		fill := 0.1 + rng.Float64()*0.9
		states = append(states, randomState(t, m, n, fill, rng), uniformState(t, m, n, fill, rng))
	}
	return append(states, fig1State(t, m), m.BasisState(6, 0b101101), underflowChain(m, 24, 1e-8))
}

func TestScratchContributionsMatchOracle(t *testing.T) {
	m := dd.New()
	var ties, zeroContrib, unreached int
	for si, e := range equivalenceStates(t, m) {
		want := oracleContributions(m, e)
		sc := getScratch()
		contributionsInto(m, e, sc)
		for i, n := range sc.nodes {
			w, ok := want[n]
			if ok != sc.reached[i] {
				t.Fatalf("state %d node %d: reached %v, oracle has a contribution: %v", si, n.ID(), sc.reached[i], ok)
			}
			if !ok {
				unreached++
				continue
			}
			if got := sc.contrib[i]; math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("state %d node %d: contribution %v, oracle %v", si, n.ID(), got, w)
			}
			if w == 0 {
				zeroContrib++
			}
		}
		var got []nodeContrib
		for c, ok := sc.nextCandidate(); ok; c, ok = sc.nextCandidate() {
			got = append(got, c)
		}
		wantCands := oracleCandidates(want, e.N)
		if len(got) != len(wantCands) {
			t.Fatalf("state %d: %d candidates, oracle %d", si, len(got), len(wantCands))
		}
		for i := range got {
			if got[i].n != wantCands[i].n || math.Float64bits(got[i].c) != math.Float64bits(wantCands[i].c) {
				t.Fatalf("state %d: candidate %d is node %d (%v), oracle node %d (%v)",
					si, i, got[i].n.ID(), got[i].c, wantCands[i].n.ID(), wantCands[i].c)
			}
			if i > 0 && got[i].c == got[i-1].c {
				ties++
			}
		}
		if !slices.Equal(sc.cands, got) {
			t.Fatalf("state %d: s.cands does not record the yielded candidates", si)
		}
		putScratch(sc)
	}
	// The family must exercise every branch the orders can differ on.
	if ties == 0 || zeroContrib == 0 || unreached == 0 {
		t.Fatalf("state family too tame: %d ties, %d zero contributions, %d unreached nodes",
			ties, zeroContrib, unreached)
	}
}

func TestLevelContributionSumsRepeatable(t *testing.T) {
	m := dd.New()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(7)
		e := randomState(t, m, n, 0.3+rng.Float64()*0.7, rng)
		first := LevelContributionSums(m, e, n)
		for rep := 0; rep < 5; rep++ {
			again := LevelContributionSums(m, e, n)
			for q := range first {
				if math.Float64bits(again[q]) != math.Float64bits(first[q]) {
					t.Fatalf("n=%d level %d: sum %v on one call, %v on another", n, q, first[q], again[q])
				}
			}
		}
	}
}

func TestPutScratchPinsNothing(t *testing.T) {
	// A pooled scratch outlives the job that used it; past every slice's
	// length its backing array must hold only zero values, or the pool
	// keeps a finished job's nodes (and through them its node chunks and
	// weight table) alive.
	m := dd.New()
	rng := rand.New(rand.NewSource(5))
	sc := getScratch()
	for pass := 0; pass < 3; pass++ {
		e := randomState(t, m, 8+pass, 0.8, rng)
		sc.reuse()
		contributionsInto(m, e, sc)
		limit := 5 // stop early: the heap keeps entries
		for i := 0; i < limit; i++ {
			sc.nextCandidate()
		}
		if _, removed, _ := removeWithBackoff(m, e, sc, limit); removed == 0 {
			t.Fatal("nothing removed")
		}
	}
	putScratch(sc)
	v := reflect.ValueOf(sc).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		if f.Cap() == 0 {
			t.Fatalf("field %s never used; the test no longer covers it", v.Type().Field(i).Name)
		}
		full := f.Slice(0, f.Cap())
		for j := 0; j < full.Len(); j++ {
			if !full.Index(j).IsZero() {
				t.Fatalf("pooled scratch field %s holds a non-zero element at %d (len %d, cap %d)",
					v.Type().Field(i).Name, j, f.Len(), f.Cap())
			}
		}
	}
}
