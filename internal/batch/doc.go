// Package batch fans independent simulation jobs out across a pool of
// worker goroutines. Every job runs on its own fresh DD manager (sim.Run) —
// managers are not goroutine-safe, so a manager is never shared.
//
// There is one engine, Pool: a fixed set of workers draining a bounded
// queue. NewPool accepts jobs one at a time and hands back a Handle per job
// (Started/Cancel), so long-lived callers — the HTTP simulation service in
// internal/serve — can submit, poll, and cancel; Job.Finalize delivers each
// outcome. Run executes a closed batch as a pool whose queue holds the whole
// batch: it submits every job in index order, closes the pool, and reports
// results in index order.
// This drives the Table I halves and the hyper-parameter sweeps in
// internal/benchtab.
//
// The engine guarantees determinism: a job's outcome depends only on its
// circuit, its options, and the seed derived from the base seed and the
// job (or submission) index — never on the worker it lands on or the
// worker count. Node identities, value-table contents, and therefore every
// reported metric are bit-identical between a serial (one-worker) and a
// parallel run; only wall-clock timing fields differ.
//
// A job's DD manager lives exactly as long as the job. Job.Finalize runs on
// the worker right after the simulation and is the one place to sample or
// compare the final state; when it returns, the engine clears the result's
// Manager, Final and Density, so neither a returned Result nor a retained
// Handle keeps a finished job's decision diagrams in memory.
//
// Cancellation is cooperative and two-level: the batch context (or a
// Handle's Cancel) keeps not-yet-started jobs from running and aborts
// in-flight simulations between gates (via sim.Options.Context), and
// per-job deadlines (Job.Timeout, which Run defaults to its
// Options.JobTimeout) bound each simulation individually, mirroring the
// paper's 3 h timeout column. A job canceled before it starts reports
// Worker -1, zero Elapsed and the cause as Err, and its Finalize still runs
// exactly once.
//
// The root package re-exports the closed-batch entry point as
// repro.BatchRun.
package batch
