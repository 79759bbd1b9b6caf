// Package density implements exact noisy quantum-circuit simulation with
// density matrices on matrix decision diagrams.
//
// A State wraps a matrix DD root edge owned by a dd.Manager, so the density
// representation reuses the manager's unique tables, node pools, compute
// caches, and variable order. Gates evolve the state as ρ → U ρ U†; noise is
// applied exactly as a superoperator ρ → Σ_k K_k ρ K_k† from a Channel's
// Kraus operators, replacing the Monte-Carlo trajectory averaging in
// internal/sim/noise.go with a single deterministic run.
//
// Built-in channels (depolarizing, amplitude damping, dephasing, bit flip,
// phase flip) are validated against the Kraus completeness relation
// Σ K†K = I at construction, so every Channel value is trace-preserving.
// Extraction helpers cover the quantities the rest of the system needs:
// Trace, Purity (Tr ρ²), FidelityPure (⟨ψ|ρ|ψ⟩), diagonal probabilities,
// and sampling without collapse. The package walks no DD itself: traces and
// samples come from the manager (dd.Manager.MTrace and SampleDiagonal), so
// the one visit stamp and the retained per-node results of internal/dd
// serve the density backend too.
//
// The package is driven through the backend seam in internal/sim: a Session
// with Options.Backend = BackendDensity routes the same gate loop, observer
// events, and cleanup triggers through a State instead of a statevector.
package density
