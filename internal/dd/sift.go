package dd

import "sort"

// SiftConfig bounds a dynamic-reordering pass.
type SiftConfig struct {
	// MaxVars caps how many qubits are sifted, widest level first
	// (0 = all). Sifting one qubit costs ~2n adjacent swaps, so this is the
	// main cost knob.
	MaxVars int
	// KeepMatrices lists operation DDs that must survive the pass's final
	// Cleanup. Omit DDs that are stale under the new order (gate caches):
	// letting the sweep recycle them is the point.
	KeepMatrices []MEdge
}

// SiftReport summarizes one sifting pass.
type SiftReport struct {
	// SizeBefore and SizeAfter are the combined root node counts around the
	// pass; SizeAfter ≤ SizeBefore always (a variable is returned to its
	// best observed position before the next one is sifted).
	SizeBefore, SizeAfter int
	// Swaps counts adjacent-level swaps performed.
	Swaps int
	// VarsSifted counts qubits actually moved through the order.
	VarsSifted int
}

// Sift runs one pass of Rudell-style variable sifting over the n-qubit
// vector DDs rooted at roots: each candidate qubit (widest level first) is
// moved through every position via SwapAdjacentLevels and parked at the one
// minimizing the combined node count, then the next candidate is sifted
// under the updated order. The pass finishes with a Cleanup rooted at the
// rewritten roots (plus cfg.KeepMatrices), returning every transient node
// built while exploring positions to the pool free stacks and invalidating
// the compute caches.
//
// The rewritten roots are returned in order; as with Cleanup, edges not
// listed in roots become invalid. The pass is deterministic: candidate
// order, tie-breaking, and the swap rewrites depend only on the DD contents.
func (m *Manager) Sift(n int, roots []VEdge, cfg SiftConfig) ([]VEdge, SiftReport) {
	rep := SiftReport{SizeBefore: m.countRootNodes(roots)}
	rep.SizeAfter = rep.SizeBefore
	if n < 2 {
		return roots, rep
	}

	// Candidate qubits, widest current level first (ties: lower qubit).
	width := make([]int, n)
	stamp := m.beginWalk()
	var walk func(node *VNode)
	walk = func(node *VNode) {
		if node == nil || node.IsTerminal() || node.walk == stamp {
			return
		}
		node.walk = stamp
		if int(node.Var) < n {
			width[m.LevelQubit(int(node.Var))]++
		}
		walk(node.E[0].N)
		walk(node.E[1].N)
	}
	for _, r := range roots {
		walk(r.N)
	}
	cands := make([]int, n)
	for q := range cands {
		cands[q] = q
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return width[cands[i]] > width[cands[j]]
	})
	if cfg.MaxVars > 0 && cfg.MaxVars < len(cands) {
		cands = cands[:cfg.MaxVars]
	}

	size := rep.SizeBefore
	swap := func(l int) {
		roots = m.SwapAdjacentLevels(l, roots)
		rep.Swaps++
	}
	for _, q := range cands {
		start := m.QubitLevel(q)
		best, bestPos := size, start
		// Down to the bottom…
		for l := start; l > 0; l-- {
			swap(l - 1)
			if s := m.countRootNodes(roots); s < best {
				best, bestPos = s, l-1
			}
		}
		// …up to the top…
		for l := 0; l < n-1; l++ {
			swap(l)
			if s := m.countRootNodes(roots); s < best {
				best, bestPos = s, l+1
			}
		}
		// …and back down to the best observed position.
		for l := n - 1; l > bestPos; l-- {
			swap(l - 1)
		}
		size = best
		rep.VarsSifted++
	}
	rep.SizeAfter = size

	// Recycle every transient built while exploring and drop stale compute
	// entries; the caller's roots (and any kept matrices) survive.
	m.Cleanup(roots, cfg.KeepMatrices)
	return roots, rep
}
