package batch

import "time"

// Option mutates an Options value. The functional-option constructors below
// are the preferred way to configure a batch at the API facade (mirroring
// sim.Option); Options stays the underlying representation, so struct-literal
// callers and the pool keep working.
type Option func(*Options)

// NewOptions folds functional options into an Options value.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithWorkers sets the worker-pool size (values ≤ 0 select GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// WithBaseSeed sets the base seed that per-job measurement seeds derive from.
func WithBaseSeed(seed int64) Option {
	return func(o *Options) { o.BaseSeed = seed }
}

// WithJobTimeout bounds every job's simulation (Job.Timeout overrides it per
// job).
func WithJobTimeout(d time.Duration) Option {
	return func(o *Options) { o.JobTimeout = d }
}

// WithObserver wires a batch-lifecycle observer (per-job start/done and
// per-worker summaries) into the run.
func WithObserver(obs Observer) Option {
	return func(o *Options) { o.Observer = obs }
}

// WithProgress registers a serialized progress callback invoked after each
// job finishes.
func WithProgress(fn func(done, total int, r JobResult)) Option {
	return func(o *Options) { o.Progress = fn }
}

// Observer receives batch-lifecycle events. Methods are invoked on worker
// goroutines (concurrently across workers, sequentially within one worker);
// implementations that aggregate across workers must synchronize internally.
// It complements core.Observer, which streams one simulation's internals.
type Observer interface {
	// OnJobStart fires on the job's worker just before the simulation runs.
	OnJobStart(worker, index int, name string)
	// OnJobDone fires on the job's worker after the job (and its Finalize)
	// finished.
	OnJobDone(worker int, r JobResult)
	// OnWorkerDone fires once per worker after its last job, with the
	// worker's aggregate statistics.
	OnWorkerDone(worker int, ws WorkerStats)
}

// WorkerStats aggregates one worker's activity over a batch (Result.PerWorker)
// or a pool's lifetime (PoolState.PerWorker).
type WorkerStats struct {
	// Jobs is the number of jobs the worker ran.
	Jobs int
	// Busy is the summed wall-clock time of those jobs; dividing by the
	// batch WallTime (or pool uptime) gives the worker's utilization.
	Busy time.Duration
}
