// Package benchtab regenerates Table I of the paper: the memory-driven
// validation on quantum-supremacy circuits and the fidelity-driven
// validation on Shor's algorithm, each against the exact (non-approximating)
// simulation as reference.
//
// Presets scale the instances: the `paper` preset reproduces the original
// workloads verbatim (hours of runtime on a laptop, as in the paper's
// server experiments); `small` and `medium` keep the generators and
// hyper-parameter structure but shrink qubit counts so the suite runs in
// seconds to minutes. NewSuite documents the substitution.
//
// Both halves, the hyper-parameter sweeps (E8: memory-driven threshold,
// E9: fidelity-driven round trade-off), the ordering sweep, the
// delete-vs-replace frontier and the approximability atlas are all lists
// of cells — a circuit under a registry strategy name with JSON params —
// run by one runner on the internal/batch worker pool. Every exact
// reference and approximate configuration is an independent job, so
// RunOptions.Parallel > 1 fans a table out across CPUs while producing rows
// identical to a one-worker run (timing columns aside). RunOptions.BaseSeed
// pins every measurement seed, so published rows are reproducible from the
// (preset, workers, seed) triple the experiments command prints in its
// header.
package benchtab
