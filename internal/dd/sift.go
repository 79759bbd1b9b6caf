package dd

import "sort"

// SiftReport summarizes one sifting pass.
type SiftReport struct {
	// SizeBefore and SizeAfter are the root's node counts around the
	// pass; SizeAfter ≤ SizeBefore always (a variable is returned to its
	// best observed position before the next one is sifted).
	SizeBefore, SizeAfter int
	// Swaps counts adjacent-level swaps performed.
	Swaps int
	// VarsSifted counts qubits actually moved through the order.
	VarsSifted int
}

// Sift runs one pass of Rudell-style variable sifting over the n-qubit
// vector DD rooted at root: each candidate qubit (widest level first) is
// moved through every position via SwapAdjacentLevels and parked at the one
// minimizing the node count, then the next candidate is sifted under the
// updated order. maxVars caps how many qubits are sifted (0 = all); sifting
// one costs ~2n adjacent swaps, so it is the main cost knob. The pass
// finishes with a Cleanup rooted at the rewritten root, returning every
// transient node built while exploring positions to the pool free stacks
// and invalidating the compute caches.
//
// The rewritten root is returned; as with Cleanup, every other edge becomes
// invalid. The pass is deterministic: candidate order, tie-breaking, and
// the swap rewrites depend only on the DD contents.
func (m *Manager) Sift(n int, root VEdge, maxVars int) (VEdge, SiftReport) {
	rep := SiftReport{SizeBefore: m.CountV(root)}
	rep.SizeAfter = rep.SizeBefore
	if n < 2 {
		return root, rep
	}

	// Candidate qubits, widest current level first (ties: lower qubit).
	width := make([]int, n)
	for _, node := range m.NumberVNodes(nil, root) {
		if int(node.Var) < n {
			width[m.LevelQubit(int(node.Var))]++
		}
	}
	cands := make([]int, n)
	for q := range cands {
		cands[q] = q
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return width[cands[i]] > width[cands[j]]
	})
	if maxVars > 0 && maxVars < len(cands) {
		cands = cands[:maxVars]
	}

	size := rep.SizeBefore
	swap := func(l int) {
		root = m.SwapAdjacentLevels(l, root)
		rep.Swaps++
	}
	for _, q := range cands {
		start := m.QubitLevel(q)
		best, bestPos := size, start
		// Down to the bottom…
		for l := start; l > 0; l-- {
			swap(l - 1)
			if s := m.CountV(root); s < best {
				best, bestPos = s, l-1
			}
		}
		// …up to the top…
		for l := 0; l < n-1; l++ {
			swap(l)
			if s := m.CountV(root); s < best {
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
	// entries; the caller's root survives.
	m.Cleanup([]VEdge{root}, nil)
	return root, rep
}
