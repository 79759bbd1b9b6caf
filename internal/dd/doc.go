// Package dd implements edge-weighted decision diagrams for quantum states
// (vector DDs) and quantum operations (matrix DDs), in the QMDD style used by
// the paper's simulator substrate (Zulehner/Wille, "Advanced simulation of
// quantum computations"; Zulehner/Hillmich/Wille, ICCAD 2019).
//
// Conventions:
//
//   - Qubit q corresponds to bit q of the basis-state index. Nodes are
//     labeled by DD level: the root of an n-qubit DD has Var n-1 and the
//     terminal sits below Var 0 (as in Fig. 1 of the paper). Which level
//     represents which qubit is the manager's variable order (order.go) —
//     identity by default, settable per run (SetOrder), and movable mid-run
//     through adjacent-level swaps (SwapAdjacentLevels) and sifting (Sift).
//     Qubit-indexed entry points consult the order; structural operations
//     pair levels positionally and never see it.
//   - There is no level skipping: every root-to-terminal path visits every
//     variable. This makes the per-level node-contribution identity of
//     Definition 2 hold exactly (contributions on each level sum to 1).
//   - Vector nodes are normalized so |w0|² + |w1|² = 1 and the first
//     non-zero child weight is real and positive. Matrix nodes are
//     normalized so the first largest-magnitude weight equals 1.
//   - Edge weights are interned in a cnum.Table; node identity is pointer
//     identity maintained through unique tables.
//
// Memory system: nodes live in per-manager pools (one generic nodePool type
// per node kind: chunked arrays with a LIFO free stack) and are interned
// through per-variable hashed unique tables whose buckets chain nodes
// intrusively via the node's next pointer. Both node kinds embed one
// nodeHeader, and one generic levelTable type serves both: it owns a
// level's buckets and count, grows them, sweeps them, and links new nodes
// (levelTable.link is the one place any node is interned); only the
// chain-compare loops of the lookups stay per kind. The five compute caches
// (add, madd, mul, mm, ip) are instances of one generic computeCache type:
// power-of-two arrays with overwrite-on-collision eviction and
// generation-tag invalidation, so ClearCaches is O(1). Each starts at 1 Ki
// entries and doubles under miss pressure up to a cap, so cache memory is
// bounded. Cleanup is a mark-sweep pass: live nodes are stamped with the
// current GC generation and dead nodes are unlinked from their buckets onto
// the free stacks for recycling.
//
// Node walks of both kinds (CountV, NumberVNodes, sifting's size checks,
// CountM, MTrace, ConjugateTranspose, SampleDiagonal) keep no visited set:
// they mark nodes with a stamp from one per-manager visit counter and keep
// per-node results in retained slices indexed by the order the walk
// reaches the nodes (VNode.Ord for the approximation passes), so the
// manager holds no map keyed by node. Walks are not reentrant, across
// kinds too: a matrix walk must never run inside a vector walk, nor the
// other way round (see count.go).
//
// Stats and Pool snapshot the counters (per-cache hits/misses/evictions,
// node traffic, pool occupancy); the simulation service surfaces them per
// worker on its /v1/stats endpoint. See docs/ARCHITECTURE.md and the
// "Architecture: DD memory system" section of the README for the full
// design.
package dd
