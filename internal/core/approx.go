package core

import (
	"fmt"

	"repro/internal/dd"
)

// Report describes one approximation round.
type Report struct {
	// Requested is the single-round target fidelity f_round; the achieved
	// fidelity is guaranteed to be ≥ Requested.
	Requested float64
	// Achieved is the exact fidelity between the state before and after the
	// round, F = |⟨ψ|ψ_I⟩|² = ‖P_I ψ‖², computed by inner product.
	Achieved float64
	// RemovedNodes is the number of nodes selected for removal.
	RemovedNodes int
	// ReplacedNodes is the number of nodes swapped for cheaper substitutes
	// by the replace pass (zero for delete-based rounds).
	ReplacedNodes int
	// RemovedMass is the sum of raw contributions of the removed nodes. It
	// over-counts overlapping paths, so 1−Achieved ≤ RemovedMass ≤ 1−Requested.
	RemovedMass float64
	// SizeBefore and SizeAfter are the DD node counts around the round.
	SizeBefore, SizeAfter int
}

// NoOp reports whether the round left the state untouched.
func (r Report) NoOp() bool { return r.RemovedNodes == 0 && r.ReplacedNodes == 0 }

// ApproximateToFidelity removes the smallest-contribution nodes from the
// state whose total contribution fits within the budget 1−fround, rescales
// (Eq. (1)), and returns the approximated state together with a Report.
//
// The achieved fidelity is guaranteed to be at least fround: the sum of raw
// node contributions upper-bounds the removed amplitude mass (shared paths
// are counted once per killed node), so staying within budget keeps
// ‖P_I ψ‖² ≥ fround.
func ApproximateToFidelity(m *dd.Manager, e dd.VEdge, fround float64) (dd.VEdge, Report, error) {
	if !(fround > 0 && fround <= 1) {
		return e, Report{}, fmt.Errorf("core: round fidelity %v outside (0, 1]", fround)
	}
	budget := 1 - fround
	sizeBefore := m.CountV(e)
	rep := Report{Requested: fround, Achieved: 1, SizeBefore: sizeBefore, SizeAfter: sizeBefore}
	if m.IsVZero(e) || budget == 0 {
		return e, rep, nil
	}
	sc := getScratch()
	defer putScratch(sc)
	contributionsInto(m, e, sc)
	// Greedily take nodes by ascending contribution while the total raw
	// contribution stays within the budget. The root is never a candidate;
	// ties break on node id for determinism.
	limit, total := 0, 0.0
	for cand, ok := sc.nextCandidate(); ok; cand, ok = sc.nextCandidate() {
		if total+cand.c > budget+slack {
			break
		}
		total += cand.c
		limit++
	}
	ne, removed, mass := removeWithBackoff(m, e, sc, limit)
	if removed == 0 {
		return e, rep, nil
	}
	rep.RemovedNodes = removed
	rep.RemovedMass = mass
	rep.Achieved = m.Fidelity(e, ne)
	rep.SizeAfter = m.CountV(ne)
	return ne, rep, nil
}
