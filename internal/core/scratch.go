package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/dd"
)

// Per-round working memory of the approximation pipeline. A single
// approximation round walks the state several times (contribution
// propagation, candidate selection, rebuild memoization). Every per-node
// value lives in a slice indexed by the node's ordinal from
// dd.Manager.NumberVNodes, so a round hashes nothing, and rounds draw their
// scratch from a pool so that at hundreds of rounds per job the slices are
// reused, not reallocated. The pool is GC-aware (sync.Pool drops retained
// scratch under memory pressure) and safe for concurrent batch workers.
type approxScratch struct {
	// nodes holds the round's nodes in depth-first order; a node's Ord is
	// its index here and into contrib, reached, edits and memo.
	nodes []*dd.VNode
	// level holds the same nodes in propagation order: Var descending, ID
	// ascending within a level. bucket is its per-level offset table.
	level  []*dd.VNode
	bucket []int
	// contrib is each node's Definition 2 contribution; reached marks the
	// nodes some contributing parent (or the root edge) reached, which are
	// the nodes that have a contribution at all.
	contrib []float64
	reached []bool
	// heap holds the candidates not yet selected, a min-heap on
	// (contribution, ID); cands holds the ones popped so far, ascending.
	heap  []nodeContrib
	cands []nodeContrib
	// edits is the rebuild's edit per node ("" for none); memo its result
	// per node (N == nil until built).
	edits []SubstituteKind
	memo  []dd.VEdge
}

type nodeContrib struct {
	n *dd.VNode
	c float64
}

// scratchPool starts each scratch's node list at 256 entries: the sync.Pool
// drops idle scratch at every GC, and small states then fit without
// regrowing the list from nothing.
var scratchPool = sync.Pool{New: func() any {
	return &approxScratch{nodes: make([]*dd.VNode, 0, 256)}
}}

func getScratch() *approxScratch { return scratchPool.Get().(*approxScratch) }

// putScratch clears the scratch (keeping its backing arrays) and repools it.
func putScratch(s *approxScratch) {
	s.reuse()
	scratchPool.Put(s)
}

// reuse clears the round-local state so one scratch serves several passes
// within a call (deleteToSize's removal passes). Every slice is cleared over
// its length before it is truncated, and nothing shrinks a slice without
// clearing what it drops (see nextCandidate), so past the length a backing
// array holds only zero values: a pooled scratch pins no node, weight or
// manager of a finished job.
func (s *approxScratch) reuse() {
	s.nodes = truncate(s.nodes)
	s.level = truncate(s.level)
	s.bucket = truncate(s.bucket)
	s.contrib = truncate(s.contrib)
	s.reached = truncate(s.reached)
	s.heap = truncate(s.heap)
	s.cands = truncate(s.cands)
	s.edits = truncate(s.edits)
	s.memo = truncate(s.memo)
}

func truncate[T any](x []T) []T {
	clear(x)
	return x[:0]
}

// resized returns x with length n and every element zero, reusing its
// backing array when it is large enough. A new array at least doubles the
// capacity, so a state that grows round by round reallocates O(log n)
// times, not every round.
func resized[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n, max(n, 2*cap(x)))
	}
	x = x[:n]
	clear(x)
	return x
}

// contributionsInto computes Definition 2's per-node contributions into
// s.contrib (see Contributions for the semantics) and readies the
// candidates for nextCandidate. s must be freshly cleared.
func contributionsInto(m *dd.Manager, e dd.VEdge, s *approxScratch) {
	if m.IsVZero(e) || e.N == nil || e.N.IsTerminal() {
		return
	}
	s.nodes = m.NumberVNodes(s.nodes, e)
	s.contrib = resized(s.contrib, len(s.nodes))
	s.reached = resized(s.reached, len(s.nodes))
	s.levelOrder(e.N.Var)
	// Propagate in level order (parents strictly above children); the ID
	// order within a level makes the float summation order into shared
	// children a total order.
	s.contrib[e.N.Ord()] = e.W.Abs2()
	s.reached[e.N.Ord()] = true
	for _, n := range s.level {
		c := s.contrib[n.Ord()]
		if c == 0 {
			continue
		}
		for idx := 0; idx < 2; idx++ {
			child := n.E[idx]
			if child.N == nil || child.N.IsTerminal() || child.W.Abs2() == 0 {
				continue
			}
			s.contrib[child.N.Ord()] += c * child.W.Abs2()
			s.reached[child.N.Ord()] = true
		}
	}
	s.heapCandidates(e.N)
}

// levelOrder fills s.level with s.nodes ordered by Var descending, then ID
// ascending: a counting sort on Var (every node lies on a level 0..top, as
// the DD skips no level) and a sort by ID within each level only.
func (s *approxScratch) levelOrder(top int32) {
	s.bucket = resized(s.bucket, int(top)+1)
	for _, n := range s.nodes {
		s.bucket[top-n.Var]++
	}
	start := 0
	for k, count := range s.bucket {
		s.bucket[k] = start
		start += count
	}
	s.level = resized(s.level, len(s.nodes))
	for _, n := range s.nodes {
		k := top - n.Var
		s.level[s.bucket[k]] = n
		s.bucket[k]++
	}
	// Each bucket entry now holds its level's end offset.
	lo := 0
	for _, hi := range s.bucket {
		slices.SortFunc(s.level[lo:hi], func(a, b *dd.VNode) int { return cmp.Compare(a.ID(), b.ID()) })
		lo = hi
	}
}

// heapCandidates fills the candidate heap with every contributing node
// except the root. Selection is lazy: nextCandidate pops one candidate at a
// time, so a consumer that stops after k candidates pays O(n + k log n),
// not a full sort.
func (s *approxScratch) heapCandidates(root *dd.VNode) {
	s.heap = slices.Grow(s.heap, len(s.nodes))
	s.cands = slices.Grow(s.cands, len(s.nodes))
	for i, n := range s.nodes {
		if s.reached[i] && n != root {
			s.heap = append(s.heap, nodeContrib{n, s.contrib[i]})
		}
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// nextCandidate returns the next candidate in ascending contribution order,
// ties broken by node ID for determinism, and false once none is left. The
// returned candidates accumulate in s.cands, whose first k entries are the
// first k candidates.
func (s *approxScratch) nextCandidate() (nodeContrib, bool) {
	h := s.heap
	if len(h) == 0 {
		return nodeContrib{}, false
	}
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h[last] = nodeContrib{} // cleared, so the pooled array pins nothing
	s.heap = h[:last]
	s.siftDown(0)
	s.cands = append(s.cands, top)
	return top, true
}

// candLess orders candidates by contribution, then node ID.
func candLess(a, b nodeContrib) bool {
	if c := cmp.Compare(a.c, b.c); c != 0 {
		return c < 0
	}
	return a.n.ID() < b.n.ID()
}

func (s *approxScratch) siftDown(i int) {
	h := s.heap
	for {
		least, l := i, 2*i+1
		if l < len(h) && candLess(h[l], h[least]) {
			least = l
		}
		if r := l + 1; r < len(h) && candLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// resetEdits clears the edit set and the rebuild memo for a fresh rebuild.
func (s *approxScratch) resetEdits() {
	s.edits = resized(s.edits, len(s.nodes))
	s.memo = resized(s.memo, len(s.nodes))
}

// removeWithBackoff removes the first limit candidates (s.cands) from the
// state, halving the prefix and rebuilding whenever the removal zeroes the
// state: a kill set whose total raw contribution stays below 1 can still
// cover every root-to-terminal path when the union bound is tight — killing
// all nodes of one level has true removed mass exactly 1, and float
// summation can land its contribution total one ulp below the guard. It
// returns the rebuilt state with the removed-node count and mass; a zero
// count means even a single-node removal zeroes the state and e is returned
// unchanged. Uses s.edits and s.memo; s.contrib/s.cands are left intact.
func removeWithBackoff(m *dd.Manager, e dd.VEdge, s *approxScratch, limit int) (dd.VEdge, int, float64) {
	for limit > 0 {
		s.resetEdits()
		mass := 0.0
		for _, cand := range s.cands[:limit] {
			s.edits[cand.n.Ord()] = substituteDelete
			mass += cand.c
		}
		if ne := rebuild(m, e, s); !m.IsVZero(ne) {
			return ne, limit, mass
		}
		limit /= 2
	}
	return e, 0, 0
}

// rebuild rebuilds the state DD with every node in s.edits swapped for its
// edit, then renormalizes to unit norm preserving the root phase. A deleted
// node becomes the zero vector — the truncation |ψ_I⟩ = P_I|ψ⟩ / ‖P_I|ψ⟩‖
// of Eq. (1), with I the basis states whose paths avoid the deleted nodes —
// and a substitute kind swaps in its cheaper shape. Substitutes are built
// from the node's original subtree; a promoted node's kept child is itself
// rebuilt, so nested edits below it still apply. e must be the state
// s.nodes was numbered from, and the caller resets s.edits and s.memo
// between edit sets (resetEdits).
func rebuild(m *dd.Manager, e dd.VEdge, s *approxScratch) dd.VEdge {
	if m.IsVZero(e) {
		return e
	}
	var walk func(n *dd.VNode) dd.VEdge
	walk = func(n *dd.VNode) dd.VEdge {
		if n.IsTerminal() {
			return dd.VEdge{W: m.CN.One, N: m.VTerminal()}
		}
		ord := n.Ord()
		kind := s.edits[ord]
		if kind == substituteDelete {
			return m.VZero()
		}
		if res := s.memo[ord]; res.N != nil {
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
		s.memo[ord] = res
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
