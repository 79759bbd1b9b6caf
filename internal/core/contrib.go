package core

import (
	"repro/internal/dd"
)

// Contributions computes the norm contribution of every node reachable from
// the state edge e (Definition 2): the sum of squared magnitudes of the
// amplitudes whose root-to-terminal paths pass through the node.
//
// With the |w0|²+|w1|² = 1 node normalization the subtree below any node
// carries unit mass, so the contribution equals the accumulated squared path
// weight from the root down to the node, propagated level by level.
//
// The returned map is owned by the caller. The approximation pipeline avoids
// this allocation by computing into pooled scratch (contributionsInto).
func Contributions(m *dd.Manager, e dd.VEdge) map[*dd.VNode]float64 {
	sc := getScratch()
	contributionsInto(m, e, sc)
	contrib := make(map[*dd.VNode]float64, len(sc.nodes))
	for i, n := range sc.nodes {
		if sc.reached[i] {
			contrib[n] = sc.contrib[i]
		}
	}
	putScratch(sc)
	return contrib
}

// LevelContributionSums returns, for each qubit level, the sum of the
// contributions of the nodes on that level. By Definition 2 every entry is 1
// for a normalized state (tested as an invariant). Each level sums in
// ascending node-ID order, so repeated calls agree bit for bit.
func LevelContributionSums(m *dd.Manager, e dd.VEdge, n int) []float64 {
	sums := make([]float64, n)
	sc := getScratch()
	contributionsInto(m, e, sc)
	for _, node := range sc.level {
		if int(node.Var) < n {
			sums[node.Var] += sc.contrib[node.Ord()]
		}
	}
	putScratch(sc)
	return sums
}
