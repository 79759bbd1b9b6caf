package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnum"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/sim"
)

// Job is one independent simulation.
type Job struct {
	// Name labels the job in results.
	Name string
	// Circuit to simulate. Must be non-nil; a nil circuit fails the job
	// (not the batch).
	Circuit *circuit.Circuit
	// Options for the run. Options.Strategy must not be shared with any
	// other job in the batch: strategies are stateful per run, so two
	// workers driving one strategy instance race. Prefer NewStrategy.
	// A zero Options.MeasurementSeed is replaced by the derived per-job
	// seed (see Seed); a non-zero seed is kept verbatim.
	Options sim.Options
	// NewStrategy, when non-nil, constructs a fresh strategy for this
	// job's run, overriding Options.Strategy. This is the safe way to give
	// many jobs the "same" (stateful) strategy configuration.
	NewStrategy func() core.Strategy
	// Observer, when non-nil, receives this job's simulation lifecycle
	// events (per-gate sizes, approximation rounds, cleanups, completion),
	// overriding Options.Observer. It is invoked on the worker goroutine
	// running the job; like strategies, observers that keep state must not
	// be shared between jobs unless they synchronize internally. The
	// simulation service uses this to feed per-job event streams.
	Observer core.Observer
	// Timeout bounds this job's simulation from the moment it starts: the
	// run's context (Options.Context, else the pool's) is given this
	// timeout with sim.ErrDeadlineExceeded as its cause. Run replaces a
	// value ≤ 0 with its Options.JobTimeout; zero means no limit.
	Timeout time.Duration
	// Finalize, when non-nil, runs exactly once per job on a worker
	// goroutine: immediately after the simulation finishes (on success and
	// on failure alike), or, for a job canceled before it started, with
	// the never-started result. It is the only place to post-process the
	// final state: r.Result.Manager, Final and Density (when r.Result is
	// non-nil) are valid for sampling or fidelity computations here, and
	// the engine clears them as soon as Finalize returns, so a retained
	// result never pins its DD manager.
	// Mutations to r are reflected in the reported JobResult.
	Finalize func(r *JobResult)
}

// JobResult is the outcome of one job.
type JobResult struct {
	// Index is the job's position in the input slice.
	Index int
	// Name echoes Job.Name.
	Name string
	// Worker is the worker that ran the job, or -1 for a job whose context
	// was done before it started (its Elapsed is zero and its Err is the
	// cancellation cause).
	Worker int
	// Seed is the measurement seed the run actually used.
	Seed int64
	// Result is the simulation result, nil on error. Its Manager, Final
	// and Density are cleared once Job.Finalize returns.
	Result *sim.Result
	// Elapsed is the wall-clock time the job occupied its worker,
	// including failed and timed-out attempts (zero for jobs that never
	// started).
	Elapsed time.Duration
	// Err is the simulation error, the per-job deadline error (wrapping
	// sim.ErrDeadlineExceeded), or the batch context's cancellation cause
	// for jobs that never started.
	Err error
}

// Canceled reports whether the job was aborted by cancellation — standard
// context cancellation, a context deadline, or the pool's ErrCanceled cause
// (either before starting or between gates) — rather than failing on its
// own. Run additionally classifies jobs aborted with a custom cancellation
// cause (context.WithCancelCause) as canceled when counting Result.Canceled.
func (r JobResult) Canceled() bool {
	return errors.Is(r.Err, context.Canceled) ||
		errors.Is(r.Err, context.DeadlineExceeded) ||
		errors.Is(r.Err, ErrCanceled)
}

// Result aggregates a finished batch.
type Result struct {
	// Jobs holds one entry per input job, ordered by job index.
	Jobs []JobResult
	// Workers is the number of worker goroutines used.
	Workers int
	// WallTime is the elapsed time of the whole batch.
	WallTime time.Duration
	// CPUTime is the sum of the per-job elapsed times, including failed
	// and timed-out jobs. Each job's elapsed time is its own wall clock,
	// so as long as workers do not oversubscribe physical cores this is
	// the cost a one-worker run would pay, and WallTime approaches
	// CPUTime/Workers for balanced jobs; with more workers than cores,
	// time-sharing inflates it.
	CPUTime time.Duration
	// Completed, Failed, and Canceled count jobs by outcome.
	Completed, Failed, Canceled int
	// PerWorker holds one aggregate entry per worker goroutine, indexed by
	// worker id (JobResult.Worker).
	PerWorker []WorkerStats
}

// Options configures a batch run.
type Options struct {
	// Workers is the worker-pool size; values ≤ 0 select
	// runtime.GOMAXPROCS(0). The pool never exceeds the job count.
	Workers int
	// BaseSeed derives each job's measurement seed as Seed(BaseSeed,
	// index), keeping measurement and reset outcomes deterministic and
	// distinct across jobs for any worker count.
	BaseSeed int64
	// JobTimeout bounds every job's simulation (Job.Timeout overrides it
	// per job). Zero means no limit.
	JobTimeout time.Duration
	// Observer, when non-nil, receives the start and end of every job that
	// runs, on the job's worker. See Observer for the concurrency contract.
	Observer Observer
}

// Run executes a closed batch: it resolves each job's timeout and seed,
// submits every job to a pool whose queue holds the whole batch, closes the
// pool and returns the aggregated result, jobs in index order. Per-job
// failures are reported in Result.Jobs, not as a Run error; the returned
// error is non-nil only when ctx was canceled, in which case the partial
// Result is still returned (jobs that never started carry the cancellation
// cause as their Err).
func Run(ctx context.Context, jobs []Job, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	res := &Result{
		Jobs:      make([]JobResult, len(jobs)),
		Workers:   workers,
		PerWorker: make([]WorkerStats, workers),
	}
	if len(jobs) == 0 {
		return res, nil
	}

	p := newPool(ctx, workers, len(jobs), opts.Observer)
	handles := make([]*Handle, len(jobs))
	for i, job := range jobs {
		if job.Timeout <= 0 {
			job.Timeout = opts.JobTimeout
		}
		if job.Options.MeasurementSeed == 0 {
			job.Options.MeasurementSeed = Seed(opts.BaseSeed, i)
		}
		// Cannot fail: the pool is open and its queue holds the whole batch.
		handles[i], _ = p.Submit(job)
	}
	p.Close()

	cause := context.Cause(ctx)
	for i, h := range handles {
		jr := h.res
		res.Jobs[i] = jr
		res.CPUTime += jr.Elapsed
		switch {
		case jr.Err == nil:
			res.Completed++
		case jr.Canceled(), cause != nil && errors.Is(jr.Err, cause):
			res.Canceled++
		default:
			res.Failed++
		}
	}
	for w := range res.PerWorker {
		res.PerWorker[w] = p.workerStats(w)
	}
	res.WallTime = time.Since(start)
	return res, cause
}

// runJob executes one started job on a fresh simulator. Its timeout and
// measurement seed are already resolved on the job; the caller passes the
// outcome through finalize.
func runJob(ctx context.Context, worker, idx int, job Job) JobResult {
	jr := JobResult{Index: idx, Name: job.Name, Worker: worker}
	if job.Circuit == nil {
		jr.Err = fmt.Errorf("batch: job %d (%s): nil circuit", idx, job.Name)
		return jr
	}
	o := job.Options
	if o.Context == nil {
		o.Context = ctx
	}
	jr.Seed = o.MeasurementSeed
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		o.Context, cancel = context.WithTimeoutCause(o.Context, job.Timeout, sim.ErrDeadlineExceeded)
		defer cancel()
	}
	if job.NewStrategy != nil {
		o.Strategy = job.NewStrategy()
	}
	if job.Observer != nil {
		o.Observer = job.Observer
	}
	begin := time.Now()
	jr.Result, jr.Err = sim.New().Run(job.Circuit, o)
	jr.Elapsed = time.Since(begin)
	return jr
}

// finalize runs a job's Finalize hook, then drops the result's references
// to its manager, so the manager becomes garbage as soon as the job ends.
func finalize(jr *JobResult, hook func(*JobResult)) {
	if hook != nil {
		hook(jr)
	}
	if r := jr.Result; r != nil {
		r.Manager, r.Final, r.Density = nil, dd.VEdge{}, nil
	}
}

// Seed derives the measurement seed for the job at the given index from a
// batch base seed, via the SplitMix64 finalizer: well-spread, non-zero
// for index ≥ 0, and stable across worker counts.
func Seed(base int64, index int) int64 {
	z := cnum.Mix64(uint64(base) + (uint64(index)+1)*0x9E3779B97F4A7C15)
	if z == 0 { // zero means "derive" to the engine; never hand it back
		z = 0x9E3779B97F4A7C15
	}
	return int64(z)
}
