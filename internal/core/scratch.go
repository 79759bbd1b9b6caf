package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/dd"
)

// Per-round working memory of the approximation pipeline. A single
// approximation round walks the state several times (contribution
// propagation, edit-set selection, rebuild memoization); at hundreds of
// rounds per job the per-round maps dominated the engine's allocation
// profile, so rounds draw their scratch from a pool instead. The pool is
// GC-aware (sync.Pool drops retained scratch under memory pressure) and safe
// for concurrent batch workers.
type approxScratch struct {
	contrib map[*dd.VNode]float64
	edits   map[*dd.VNode]SubstituteKind
	memo    map[*dd.VNode]dd.VEdge
	seen    map[*dd.VNode]struct{}
	nodes   []*dd.VNode
	cands   []nodeContrib
}

type nodeContrib struct {
	n *dd.VNode
	c float64
}

var scratchPool = sync.Pool{
	New: func() any {
		return &approxScratch{
			contrib: make(map[*dd.VNode]float64, 256),
			edits:   make(map[*dd.VNode]SubstituteKind, 64),
			memo:    make(map[*dd.VNode]dd.VEdge, 256),
			seen:    make(map[*dd.VNode]struct{}, 256),
		}
	},
}

func getScratch() *approxScratch { return scratchPool.Get().(*approxScratch) }

// putScratch clears (keeping buckets and backing arrays) and repools.
func putScratch(s *approxScratch) {
	s.reuse()
	scratchPool.Put(s)
}

// reuse clears the round-local state so one scratch serves several passes
// within a call (deleteToSize's removal passes).
func (s *approxScratch) reuse() {
	clear(s.contrib)
	clear(s.edits)
	clear(s.memo)
	clear(s.seen)
	s.nodes = s.nodes[:0]
	s.cands = s.cands[:0]
}

// collect appends every distinct non-terminal node reachable from n to
// s.nodes, in the same depth-first order as dd.CollectVNodes (determinism:
// the contribution propagation sorts this slice, and sort order ties break
// on input order).
func (s *approxScratch) collect(n *dd.VNode) {
	if n == nil || n.IsTerminal() {
		return
	}
	if _, ok := s.seen[n]; ok {
		return
	}
	s.seen[n] = struct{}{}
	s.nodes = append(s.nodes, n)
	s.collect(n.E[0].N)
	s.collect(n.E[1].N)
}

// contributionsInto computes Definition 2's per-node contributions into
// s.contrib (see Contributions for the semantics). s must be freshly cleared.
func contributionsInto(m *dd.Manager, e dd.VEdge, s *approxScratch) {
	if m.IsVZero(e) || e.N == nil || e.N.IsTerminal() {
		return
	}
	s.collect(e.N)
	nodes := s.nodes
	// Propagate in level order (parents strictly above children); the ID
	// tie-break makes the within-level order — and hence the float summation
	// order into shared children — a total order independent of the sort
	// algorithm. slices.SortFunc avoids sort.Slice's per-call reflection
	// allocations on this per-round hot path.
	slices.SortFunc(nodes, func(a, b *dd.VNode) int {
		if a.Var != b.Var {
			return cmp.Compare(b.Var, a.Var)
		}
		return cmp.Compare(a.ID(), b.ID())
	})
	s.contrib[e.N] = e.W.Abs2()
	for _, n := range nodes {
		c := s.contrib[n]
		if c == 0 {
			continue
		}
		for idx := 0; idx < 2; idx++ {
			child := n.E[idx]
			if child.N == nil || child.N.IsTerminal() || child.W.Abs2() == 0 {
				continue
			}
			s.contrib[child.N] += c * child.W.Abs2()
		}
	}
}

// sortedCandidates fills s.cands with every contributing node except the
// root, sorted ascending by contribution with node-id tie-breaks for
// determinism (map iteration order must never reach the result).
func (s *approxScratch) sortedCandidates(root *dd.VNode) []nodeContrib {
	for n, c := range s.contrib {
		if n == root {
			continue
		}
		s.cands = append(s.cands, nodeContrib{n, c})
	}
	slices.SortFunc(s.cands, func(a, b nodeContrib) int {
		if a.c != b.c {
			return cmp.Compare(a.c, b.c)
		}
		return cmp.Compare(a.n.ID(), b.n.ID())
	})
	return s.cands
}

// removeWithBackoff removes the first limit candidates from the state,
// halving the prefix and rebuilding whenever the removal zeroes the state:
// a kill set whose total raw contribution stays below 1 can still cover
// every root-to-terminal path when the union bound is tight — killing all
// nodes of one level has true removed mass exactly 1, and float summation
// can land its contribution total one ulp below the guard. It returns the
// rebuilt state with the removed-node count and mass; a zero count means
// even a single-node removal zeroes the state and e is returned unchanged.
// Uses s.edits and s.memo; s.contrib/s.cands are left intact.
func removeWithBackoff(m *dd.Manager, e dd.VEdge, s *approxScratch, cands []nodeContrib, limit int) (dd.VEdge, int, float64) {
	for limit > 0 {
		clear(s.edits)
		clear(s.memo)
		mass := 0.0
		for _, cand := range cands[:limit] {
			s.edits[cand.n] = substituteDelete
			mass += cand.c
		}
		if ne := rebuild(m, e, s.edits, s.memo); !m.IsVZero(ne) {
			return ne, limit, mass
		}
		limit /= 2
	}
	return e, 0, 0
}

// rebuild rebuilds the state DD with every node in edits swapped for its
// edit, then renormalizes to unit norm preserving the root phase. A deleted
// node becomes the zero vector — the truncation |ψ_I⟩ = P_I|ψ⟩ / ‖P_I|ψ⟩‖
// of Eq. (1), with I the basis states whose paths avoid the deleted nodes —
// and a substitute kind swaps in its cheaper shape. Substitutes are built
// from the node's original subtree; a promoted node's kept child is itself
// rebuilt, so nested edits below it still apply. memo is the caller's
// rebuild memo (cleared by the caller between edit sets).
func rebuild(m *dd.Manager, e dd.VEdge, edits map[*dd.VNode]SubstituteKind, memo map[*dd.VNode]dd.VEdge) dd.VEdge {
	if m.IsVZero(e) {
		return e
	}
	var walk func(n *dd.VNode) dd.VEdge
	walk = func(n *dd.VNode) dd.VEdge {
		if n.IsTerminal() {
			return dd.VEdge{W: m.CN.One, N: m.VTerminal()}
		}
		kind := edits[n]
		if kind == substituteDelete {
			return m.VZero()
		}
		if res, ok := memo[n]; ok {
			return res
		}
		var res dd.VEdge
		if kind == SubstituteCollapse {
			res = collapseEdge(m, n)
		} else {
			drop := -1 // the weaker child a promotion drops
			if kind == SubstitutePromote {
				drop = 1
				if n.E[1].W.Abs2() > n.E[0].W.Abs2() {
					drop = 0
				}
			}
			var children [2]dd.VEdge
			for i := 0; i < 2; i++ {
				child := n.E[i]
				if i == drop || child.W.Abs2() == 0 {
					children[i] = m.VZero()
					continue
				}
				children[i] = m.ScaleV(walk(child.N), child.W.Complex())
			}
			res = m.MakeVNode(n.Var, children[0], children[1])
		}
		memo[n] = res
		return res
	}
	root := walk(e.N)
	if m.IsVZero(root) {
		return root
	}
	// Re-apply the original root weight, then renormalize: the rebuild has
	// folded the surviving mass into the root weight.
	final := m.ScaleV(root, e.W.Complex())
	return m.NormalizeRootWeight(final)
}
