package core

import (
	"fmt"
	"math"

	"repro/internal/dd"
)

// Shared limits of the delete passes.
const (
	// slack tolerates float summation error at a loss-budget boundary.
	slack = 1e-12
	// maxPasses bounds the removal passes of one size-bounded call: removing
	// a node can unshare formerly shared suffixes, so hitting a node target
	// can take several passes.
	maxPasses = 8
)

// ApproximateToSize shrinks the state DD to at most maxNodes nodes by
// removing nodes in ascending contribution order until the rebuilt DD fits.
// Unlike ApproximateToFidelity it bounds memory instead of fidelity — the
// natural dual for the memory-driven use case (Section IV-B) when staying
// under a hard memory budget matters more than accuracy. The fidelity cost
// is reported, not bounded.
func ApproximateToSize(m *dd.Manager, e dd.VEdge, maxNodes int) (dd.VEdge, Report, error) {
	if maxNodes < 1 {
		return e, Report{}, fmt.Errorf("core: size target %d must be positive", maxNodes)
	}
	sizeBefore := m.CountV(e)
	rep := Report{Requested: 0, Achieved: 1, SizeBefore: sizeBefore, SizeAfter: sizeBefore}
	if sizeBefore <= maxNodes || m.IsVZero(e) {
		return e, rep, nil
	}
	sc := getScratch()
	defer putScratch(sc)
	ne, sizeAfter := deleteToSize(m, e, sizeBefore, sc, maxNodes, 0, math.Inf(1), &rep)
	rep.SizeAfter = sizeAfter
	rep.Achieved = m.Fidelity(e, ne)
	return ne, rep, nil
}

// deleteToSize is the delete-to-size loop: it removes ascending-contribution
// nodes (with zero-state backoff) until e, currently size nodes, fits
// maxNodes, the pass budget runs out, or further removal would push the
// cumulative loss past budget (spent is what earlier passes already used;
// +Inf means no floor). Counts and mass accumulate into rep; it returns the
// final state and its size.
func deleteToSize(m *dd.Manager, e dd.VEdge, size int, sc *approxScratch, maxNodes int, spent, budget float64, rep *Report) (dd.VEdge, int) {
	for pass := 0; pass < maxPasses && size > maxNodes; pass++ {
		sc.reuse()
		contributionsInto(m, e, sc)
		// Remove at least the surplus; unsharing may offset some of it, so
		// later passes finish the job.
		need := size - maxNodes
		limit, mass := 0, 0.0
		for cand, ok := sc.nextCandidate(); ok; cand, ok = sc.nextCandidate() {
			// Never remove a pass's entire remaining mass (contributions are
			// measured on the current renormalized state), and never
			// overdraw the cumulative budget.
			if mass+cand.c >= 1 || spent+mass+cand.c > budget+slack {
				break
			}
			limit++
			mass += cand.c
			if limit >= need {
				break
			}
		}
		ne, removed, remMass := removeWithBackoff(m, e, sc, limit)
		if removed == 0 {
			// Even a single-node removal would zero the state; settle for
			// the current size.
			break
		}
		e, size = ne, m.CountV(ne)
		spent += remMass
		rep.RemovedNodes += removed
		rep.RemovedMass += remMass
	}
	return e, size
}
