package batch

import "time"

// Observer receives the batch lifecycle of every job that runs; a job
// canceled before it starts fires neither method. Methods are invoked on
// worker goroutines (concurrently across workers, sequentially within one
// worker); implementations that aggregate across workers must synchronize
// internally. It complements core.Observer, which streams one simulation's
// internals.
type Observer interface {
	// OnJobStart fires on the job's worker just before the simulation runs.
	OnJobStart(worker, index int, name string)
	// OnJobDone fires on the job's worker after the job (and its Finalize)
	// finished.
	OnJobDone(worker int, r JobResult)
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
