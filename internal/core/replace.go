package core

import (
	"fmt"
	"math"

	"repro/internal/dd"
)

// SubstituteKind names one node-replacement shape of the replace strategy
// (Yan, Hillmich, Wille, Mayr — arXiv 2507.04335). Where the delete-based
// pass (ApproximateToFidelity/ApproximateToSize) zeroes a low-contribution
// node's subtree — severing every path through it — a substitute keeps a
// cheap stand-in, holding fidelity higher at the same node budget.
type SubstituteKind string

const (
	// SubstituteCollapse replaces a node's subtree with its dominant basis
	// path: the single root-to-terminal path that follows the larger-weight
	// child at every level, weighted by the exact projection coefficient
	// (the product of the path weights). The substitute is a chain of
	// Var+1 nodes, shared across all collapsed subtrees with the same
	// dominant suffix — this is the size workhorse.
	SubstituteCollapse SubstituteKind = "collapse"
	// SubstitutePromote drops a node's weaker child (the one with smaller
	// |w|²) and keeps the dominant child's full subtree. It forfeits the
	// least mass of the two kinds but frees only the weak subtree.
	SubstitutePromote SubstituteKind = "promote"
	// substituteDelete is the delete pass's edit: the node becomes the zero
	// vector, severing every path through it. It is internal to the
	// package; ReplaceDriven.Init rejects it.
	substituteDelete SubstituteKind = "delete"
)

// DefaultSubstitutes is the default preference order: collapse first (it
// shrinks hardest), promotion as the cheaper fallback when a collapse would
// overdraw the fidelity budget.
func DefaultSubstitutes() []SubstituteKind {
	return []SubstituteKind{SubstituteCollapse, SubstitutePromote}
}

// dominantPathAbs2 returns |w|², the squared magnitude of the dominant basis
// path's weight product — the exact fraction of n's subtree mass a collapse
// substitute keeps. Node weights are normalized (|w0|²+|w1|² = 1), so the
// result is always positive.
func dominantPathAbs2(n *dd.VNode) float64 {
	kept := 1.0
	for cur := n; cur != nil && !cur.IsTerminal(); {
		idx := 0
		if cur.E[1].W.Abs2() > cur.E[0].W.Abs2() {
			idx = 1
		}
		kept *= cur.E[idx].W.Abs2()
		cur = cur.E[idx].N
	}
	return kept
}

// collapseEdge builds the collapse substitute for n: the dominant basis
// path as a fresh chain of n.Var+1 nodes, scaled by the exact projection
// coefficient ⟨path|subtree⟩ (the complex product of the path weights).
// Chains intern through the unique table, so equal suffixes share nodes.
func collapseEdge(m *dd.Manager, n *dd.VNode) dd.VEdge {
	w := complex(1, 0)
	var buf [64]int // stack room for the path of a DD of up to 64 qubits
	bits := buf[:0]
	for cur := n; cur != nil && !cur.IsTerminal(); {
		idx := 0
		if cur.E[1].W.Abs2() > cur.E[0].W.Abs2() {
			idx = 1
		}
		w *= cur.E[idx].W.Complex()
		bits = append(bits, idx)
		cur = cur.E[idx].N
	}
	e := dd.VEdge{W: m.CN.One, N: m.VTerminal()}
	for lvl := 0; lvl < len(bits); lvl++ {
		b := bits[len(bits)-1-lvl]
		var c [2]dd.VEdge
		c[1-b] = m.VZero()
		c[b] = e
		e = m.MakeVNode(int32(lvl), c[0], c[1])
	}
	return m.ScaleV(e, w)
}

// lossFrac returns the fraction of n's subtree mass the substitute kind
// forfeits, or 0 when the substitution is a structural no-op (the node
// already is a basis chain, or already has a single child) and should be
// skipped.
func lossFrac(n *dd.VNode, kind SubstituteKind) float64 {
	switch kind {
	case SubstituteCollapse:
		return 1 - dominantPathAbs2(n)
	case SubstitutePromote:
		l := n.E[0].W.Abs2()
		if r := n.E[1].W.Abs2(); r < l {
			l = r
		}
		return l
	}
	return 0
}

// ApproximateToSizeReplace shrinks the state DD to at most maxNodes nodes by
// replacing nodes in ascending contribution order with cheaper substitutes,
// tried in the caller's preference order (nil kinds = DefaultSubstitutes).
// minFidelity > 0 bounds the loss: the sum of estimated forfeited masses
// (contribution × loss fraction, an upper bound on the true loss by the same
// union-bound argument as the delete pass) stays within 1−minFidelity, so
// the achieved fidelity is guaranteed ≥ minFidelity; minFidelity = 0 means
// no floor. If substitution alone cannot reach the target — a replaced
// subtree shared elsewhere frees nothing, while its substitute chain adds
// nodes — remaining surplus is deleted the classic way within the same loss
// budget, so the pass never does worse on size than ApproximateToSize.
func ApproximateToSizeReplace(m *dd.Manager, e dd.VEdge, maxNodes int, minFidelity float64, kinds []SubstituteKind) (dd.VEdge, Report, error) {
	if maxNodes < 1 {
		return e, Report{}, fmt.Errorf("core: size target %d must be positive", maxNodes)
	}
	if !(minFidelity >= 0 && minFidelity < 1) {
		return e, Report{}, fmt.Errorf("core: fidelity floor %v outside [0, 1)", minFidelity)
	}
	if len(kinds) == 0 {
		kinds = DefaultSubstitutes()
	}
	sizeBefore := m.CountV(e)
	rep := Report{Requested: minFidelity, Achieved: 1, SizeBefore: sizeBefore, SizeAfter: sizeBefore}
	if sizeBefore <= maxNodes || m.IsVZero(e) {
		return e, rep, nil
	}
	// minFidelity = 0 means no floor: the loss budget is unbounded, exactly
	// like ApproximateToSize (which this pass must never lose to on size).
	budget := math.Inf(1)
	if minFidelity > 0 {
		budget = 1 - minFidelity
	}
	orig := e
	sc := getScratch()
	defer putScratch(sc)
	type pick struct {
		n    *dd.VNode
		kind SubstituteKind
		loss float64
	}
	var picks []pick
	spent := 0.0
	size := sizeBefore
	for pass := 0; pass < maxPasses && size > maxNodes; pass++ {
		sc.reuse()
		contributionsInto(m, e, sc)
		need := size - maxNodes
		picks = picks[:0]
		passSpent := 0.0
		for cand, ok := sc.nextCandidate(); ok; cand, ok = sc.nextCandidate() {
			for _, kind := range kinds {
				frac := lossFrac(cand.n, kind)
				if frac <= 0 {
					continue // structural no-op for this node
				}
				loss := cand.c * frac
				if spent+passSpent+loss > budget+slack {
					continue // overdraws the floor; a cheaper kind may fit
				}
				picks = append(picks, pick{cand.n, kind, loss})
				passSpent += loss
				break
			}
			if len(picks) >= need {
				break
			}
		}
		if len(picks) == 0 {
			break // budget exhausted or nothing substitutable
		}
		// Build with a prefix of the ascending-contribution picks. One
		// collapse can free a whole subtree, overshooting the target and
		// wasting fidelity a smaller prefix would have kept, so when the
		// full set fits, binary-search the smallest prefix that still fits.
		build := func(count int) (dd.VEdge, float64) {
			sc.resetEdits()
			cost := 0.0
			for _, p := range picks[:count] {
				sc.edits[p.n.Ord()] = p.kind
				cost += p.loss
			}
			return rebuild(m, e, sc), cost
		}
		ne, passCost := build(len(picks))
		chosen, newSize := len(picks), m.CountV(ne)
		if newSize <= maxNodes && chosen > 1 {
			lo, hi := 1, chosen
			for lo < hi {
				mid := (lo + hi) / 2
				cand, cost := build(mid)
				if candSize := m.CountV(cand); candSize <= maxNodes {
					ne, passCost, chosen, newSize = cand, cost, mid, candSize
					hi = mid
				} else {
					lo = mid + 1
				}
			}
		}
		if m.IsVZero(ne) || newSize >= size {
			// Substitution stopped shrinking (shared subtrees freed nothing
			// while the chains added nodes); keep the smaller state and let
			// the delete fallback finish the job.
			break
		}
		e, size = ne, newSize
		spent += passCost
		rep.ReplacedNodes += chosen
		rep.RemovedMass += passCost
	}
	// Delete fallback: force any remaining surplus out the classic way,
	// spending what is left of the same loss budget.
	e, eSize := deleteToSize(m, e, size, sc, maxNodes, spent, budget, &rep)
	// Pure floored delete from the original state is the reference this pass
	// must never lose to: on dense states substitution can spend fidelity
	// without freeing nodes (shared subtrees, chains adding nodes) and the
	// fallback then deletes on top of that damage. Keep whichever result is
	// better — fits the budget first, then higher fidelity, then smaller.
	alt := Report{Requested: minFidelity, Achieved: 1, SizeBefore: sizeBefore, SizeAfter: sizeBefore}
	ae, aSize := deleteToSize(m, orig, sizeBefore, sc, maxNodes, 0, budget, &alt)
	eFid, aFid := m.Fidelity(orig, e), m.Fidelity(orig, ae)
	takeAlt := false
	switch {
	case aSize <= maxNodes && eSize > maxNodes:
		takeAlt = true
	case aSize > maxNodes && eSize > maxNodes:
		takeAlt = aSize < eSize
	case aSize <= maxNodes && eSize <= maxNodes:
		takeAlt = aFid > eFid
	}
	if takeAlt {
		e, rep, eFid, eSize = ae, alt, aFid, aSize
	}
	rep.SizeAfter = eSize
	rep.Achieved = eFid
	return e, rep, nil
}

// ReplaceDriven is the node-replacement strategy (arXiv 2507.04335): after
// each gate, if the state DD exceeds NodeBudget nodes, shrink it back under
// the budget with ApproximateToSizeReplace. Unlike MemoryDriven's growing
// threshold, the budget is a fixed memory ceiling; the FidelityFloor bounds
// the cumulative damage instead — each round's loss allowance is what keeps
// the product of achieved round fidelities (a lower bound on the final
// fidelity by the composition lemma) above the floor, and once the floor is
// reached no further rounds run.
type ReplaceDriven struct {
	// NodeBudget is the node-count ceiling the state is shrunk back to.
	NodeBudget int `json:"node_budget"`
	// FidelityFloor is the cumulative fidelity the strategy refuses to go
	// below across all rounds; 0 means no floor.
	FidelityFloor float64 `json:"fidelity_floor,omitempty"`
	// Kinds is the substitute preference order; nil selects
	// DefaultSubstitutes (collapse, then promote).
	Kinds []SubstituteKind `json:"kinds,omitempty"`

	fid       float64
	exhausted bool
}

// Name implements Strategy.
func (s *ReplaceDriven) Name() string { return "replace" }

// Init implements Strategy.
func (s *ReplaceDriven) Init(int, []int) error {
	if s.NodeBudget <= 0 {
		return fmt.Errorf("core: replace node budget %d must be positive", s.NodeBudget)
	}
	if !(s.FidelityFloor >= 0 && s.FidelityFloor < 1) {
		return fmt.Errorf("core: replace fidelity floor %v outside [0, 1)", s.FidelityFloor)
	}
	if len(s.Kinds) == 0 {
		s.Kinds = DefaultSubstitutes()
	}
	for _, k := range s.Kinds {
		if k != SubstituteCollapse && k != SubstitutePromote {
			return fmt.Errorf("core: unknown substitute kind %q (known: %q, %q)",
				k, SubstituteCollapse, SubstitutePromote)
		}
	}
	s.fid = 1
	s.exhausted = false
	return nil
}

// AfterGate implements Strategy.
func (s *ReplaceDriven) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *Round, error) {
	if size <= s.NodeBudget || s.exhausted {
		return state, nil, nil
	}
	minRound := 0.0
	if s.FidelityFloor > 0 {
		minRound = s.FidelityFloor / s.fid
		if minRound >= 1 {
			s.exhausted = true
			return state, nil, nil
		}
	}
	ne, rep, err := ApproximateToSizeReplace(m, state, s.NodeBudget, minRound, s.Kinds)
	if err != nil {
		return state, nil, err
	}
	if rep.NoOp() {
		return state, nil, nil
	}
	s.fid *= rep.Achieved
	return ne, &Round{GateIndex: gateIdx, Report: rep}, nil
}
