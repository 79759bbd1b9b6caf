// Package sim drives DD-based quantum circuit simulation with optional
// approximation (Section IV of the paper).
//
// The unit of execution is the Session: a resumable gate-level stepper that
// constructs the initial basis state, applies gates by DD matrix-vector
// multiplication, and consults the configured approximation strategy after
// every gate. Callers either run a circuit end to end (Run is a thin,
// allocation-neutral loop over a Session) or drive it explicitly —
// Step/StepN/Seek between gates, State to inspect the live DD, Abort to
// release pooled nodes early, Finish for the Result. Instrumentation records
// the paper's metrics: maximum DD size over the run, approximation rounds,
// and the fidelity accounting of Lemma 1, plus the DD memory-system
// counters (Result.DDStats, Result.WeightTable).
//
// Options.Observer (core.Observer) streams lifecycle events — per-gate
// sizes, approximation rounds, node-pool cleanups, completion — to the
// caller as the run executes; the HTTP service forwards them as per-job SSE
// streams. Options is a plain struct: callers fill the fields they need,
// and the zero value runs exact.
//
// Runs are interruptible between gates through one knob, Options.Context,
// which the session checks between gates: it is how the batch engine and
// the HTTP service abort in-flight work, and a deadline (the paper's
// timeout column) is a context from context.WithTimeoutCause carrying
// ErrDeadlineExceeded as its cancellation cause. Mid-circuit measurement
// and reset are deterministic per Options.MeasurementSeed. A Simulator owns
// one dd.Manager whose node pools are swept on occupancy pressure during
// the run (past 1<<17 live nodes, a threshold that adapts upward when a
// sweep finds the pool mostly live) and recycled wholesale between runs by
// Recycle; state edges that must survive a later run's sweeps are protected
// with Options.KeepAlive.
//
// RunAndCompare executes a circuit exactly and approximately inside one
// manager and measures the true fidelity between the final states — the
// paper's empirical validation, and the source of the Table I true-fidelity
// column.
package sim
