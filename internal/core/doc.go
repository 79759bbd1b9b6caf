// Package core implements the paper's primary contribution: controlled
// approximation of decision-diagram quantum states.
//
// It provides
//
//   - node contribution analysis (Definition 2),
//   - constructive approximation with a guaranteed fidelity lower bound
//     (Section IV-A, following Zulehner et al., ASP-DAC 2020 [27]),
//   - size-targeted approximation (shrink to at most N nodes, reporting the
//     fidelity cost),
//   - node replacement (arXiv 2507.04335): size-targeted approximation that
//     swaps low-contribution nodes for cheaper substitutes; deletion is the
//     substitute whose edit is the zero vector, and one rebuild applies both,
//   - the reactive memory-driven strategy (Section IV-B),
//   - the proactive fidelity-driven strategy (Section IV-C), and
//   - the fixed-budget replace strategy,
//
// together with the multi-round fidelity accounting justified by Lemma 1
// (Section V): the end-to-end fidelity is the product of the per-round
// fidelities. Strategies are stateful per run and plug into simulation via
// sim.Options.Strategy; each run needs a fresh instance (the batch engine's
// Job.NewStrategy and the serve service construct one per job).
//
// Two extension seams make mid-run behavior first-class:
//
//   - The strategy registry (RegisterStrategy / NewStrategyByName) maps
//     names plus JSON parameters to factories, so custom strategies are
//     constructible by name — in-process and over the simulation service's
//     HTTP API. The builtins register as "exact", "memory", "fidelity" and
//     "replace"; internal/order registers "reorder".
//   - The Observer interface (OnGate, OnApproximation, OnCleanup,
//     OnReorder, OnChannel, OnFinish) receives simulation lifecycle events between
//     gates; the simulation driver invokes it on the hot path with
//     NopObserver as the free default.
//
// A third seam, Reorderer, lets a strategy request a variable-ordering
// policy (static order plus dynamic sifting bounds) that the simulation
// session executes; the "reorder" strategy in internal/order implements it.
package core
