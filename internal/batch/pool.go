package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Typed pool errors. Submit returns the first two; the third is the default
// cancellation cause. All are errors.Is-able end to end: the HTTP service
// maps them to error codes and the client maps the codes back to these
// sentinels.
var (
	// ErrShutdown is returned by Submit after Close or Shutdown.
	ErrShutdown = errors.New("batch: pool closed")
	// ErrQueueFull is returned by Submit when the bounded queue is full,
	// so callers (e.g. an HTTP service) can shed load instead of blocking.
	ErrQueueFull = errors.New("batch: pool queue full")
	// ErrCanceled is the cancellation cause used by CancelAll and
	// Handle.Cancel when the caller passes nil; JobResult.Canceled reports
	// true for it.
	ErrCanceled = errors.New("batch: job canceled")
)

// PoolOptions configures an open-ended worker pool.
type PoolOptions struct {
	// Workers is the worker-goroutine count; values ≤ 0 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of submitted-but-not-yet-started jobs;
	// values ≤ 0 select 4×Workers. When the queue is full Submit fails
	// with ErrQueueFull instead of blocking, so callers (e.g. an HTTP
	// service) can shed load.
	QueueDepth int
}

// Pool is the batch engine: a fixed set of worker goroutines draining a
// bounded queue. It accepts jobs one at a time and returns a Handle per job,
// so long-lived callers (the simulation service in internal/serve) can
// submit, poll, and cancel independent simulations; Run is a pool whose
// queue holds its whole batch.
//
// A job's outcome depends only on its circuit, its options, and its
// submission index (a job whose Options leave MeasurementSeed zero runs with
// Seed(0, index)) — never on which worker runs it. Every job gets a fresh
// manager that its Handle stops referencing once Job.Finalize returns.
type Pool struct {
	workers int
	depth   int

	ctx    context.Context // parent of every job context; canceled by CancelAll or Close
	cancel context.CancelCauseFunc

	queue chan *Handle
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	next   int

	start time.Time

	queued    atomic.Int64
	running   atomic.Int64
	finished  atomic.Int64
	submitted atomic.Int64

	perWorker []workerCounters

	// observer is Run's batch observer, nil for NewPool. It fires only
	// for jobs that ran.
	observer Observer
}

// workerCounters holds one worker's lifetime statistics, padded to a cache
// line: every worker bumps its own counters after every job, and co-locating
// two workers' hot counters on one line makes those updates contend
// (false sharing) even though they touch disjoint fields.
type workerCounters struct {
	jobs      atomic.Int64
	busyNanos atomic.Int64
	_         [48]byte
}

// Handle tracks one submitted job through the pool.
type Handle struct {
	index  int
	job    Job
	ctx    context.Context
	cancel context.CancelCauseFunc

	started atomic.Bool
	res     JobResult
}

// NewPool starts the workers and returns a pool ready for Submit.
func NewPool(opts PoolOptions) *Pool {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	return newPool(context.Background(), workers, depth, nil)
}

// newPool starts workers goroutines on a queue of the given depth. Every
// job context derives from ctx; observer may be nil.
func newPool(ctx context.Context, workers, depth int, observer Observer) *Pool {
	ctx, cancel := context.WithCancelCause(ctx)
	p := &Pool{
		workers:   workers,
		depth:     depth,
		ctx:       ctx,
		cancel:    cancel,
		queue:     make(chan *Handle, depth),
		start:     time.Now(),
		perWorker: make([]workerCounters, workers),
		observer:  observer,
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// worker is the engine's one job loop.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	wc := &p.perWorker[id]
	for h := range p.queue {
		p.queued.Add(-1)
		// A job whose context is done before it starts never runs; it
		// still reaches Finalize, with Worker -1 and the cause as Err.
		jr := JobResult{Index: h.index, Name: h.job.Name, Worker: -1, Err: context.Cause(h.ctx)}
		ran := jr.Err == nil
		if ran {
			h.started.Store(true)
			p.running.Add(1)
			if p.observer != nil {
				p.observer.OnJobStart(id, h.index, h.job.Name)
			}
			jr = runJob(h.ctx, id, h.index, h.job)
			// Count the job before Finalize runs: a Finalize hook may
			// publish the outcome (the simulation service marks the job
			// done there), and a caller that sees it must find the job in
			// State too.
			wc.jobs.Add(1)
			wc.busyNanos.Add(int64(jr.Elapsed))
			p.running.Add(-1)
		}
		p.finished.Add(1)
		finalize(&jr, h.job.Finalize)
		h.res = jr
		if ran && p.observer != nil {
			p.observer.OnJobDone(id, jr)
		}
		// Release the job context: this detaches it from the pool context's
		// children (it would otherwise stay registered — and leak — for the
		// pool's lifetime). The job is over, so the cause is never observed.
		h.cancel(context.Canceled)
	}
}

// Submit enqueues one job and returns its handle without blocking. It fails
// with ErrQueueFull when the bounded queue is full and ErrShutdown after
// Close/Shutdown. A zero measurement seed derives from the submission index
// exactly as in a closed batch with BaseSeed 0: Seed(0, index).
func (p *Pool) Submit(job Job) (*Handle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrShutdown
	}
	if job.Options.MeasurementSeed == 0 {
		job.Options.MeasurementSeed = Seed(0, p.next)
	}
	ctx, cancel := context.WithCancelCause(p.ctx)
	h := &Handle{
		index:  p.next,
		job:    job,
		ctx:    ctx,
		cancel: cancel,
	}
	select {
	case p.queue <- h:
		p.next++
		p.queued.Add(1)
		p.submitted.Add(1)
		return h, nil
	default:
		cancel(ErrQueueFull) // release the context; the handle is dropped
		return nil, ErrQueueFull
	}
}

// Close stops accepting new jobs, drains the queue, and waits for in-flight
// jobs to finish. It then releases the pool context. It is safe to call
// more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
	p.cancel(ErrShutdown)
}

// CancelAll cancels every queued and in-flight job with the given cause
// (ErrCanceled when nil). The pool keeps accepting new jobs; combine
// with Close (or use Shutdown) to tear the pool down.
func (p *Pool) CancelAll(cause error) {
	if cause == nil {
		cause = ErrCanceled
	}
	p.cancel(cause)
}

// Shutdown closes the pool gracefully: it stops accepting jobs and waits for
// queued and running jobs to drain. If ctx expires first, every remaining
// job is canceled (with the context's cause) and Shutdown waits for the
// workers to acknowledge, returning ctx.Err().
func (p *Pool) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.CancelAll(context.Cause(ctx))
		<-done
		return ctx.Err()
	}
}

// PoolState is a point-in-time snapshot of pool occupancy.
type PoolState struct {
	// Workers and QueueDepth echo the resolved configuration.
	Workers    int
	QueueDepth int
	// Queued and Running count jobs waiting in the queue and executing on
	// workers right now.
	Queued  int
	Running int
	// Submitted and Finished count jobs over the pool's lifetime (Finished
	// includes failed and canceled jobs).
	Submitted int64
	Finished  int64
	// Uptime is the time since the pool started.
	Uptime time.Duration
	// PerWorker holds one lifetime entry per worker goroutine, indexed by
	// worker id.
	PerWorker []PoolWorkerState
}

// PoolWorkerState is one worker's lifetime statistics in a PoolState
// snapshot.
type PoolWorkerState struct {
	WorkerStats
	// Utilization is the fraction of the pool's uptime this worker spent
	// running jobs (Busy / Uptime).
	Utilization float64
}

// State returns a snapshot of pool occupancy.
func (p *Pool) State() PoolState {
	uptime := time.Since(p.start)
	st := PoolState{
		Workers:    p.workers,
		QueueDepth: p.depth,
		Queued:     int(p.queued.Load()),
		Running:    int(p.running.Load()),
		Submitted:  p.submitted.Load(),
		Finished:   p.finished.Load(),
		Uptime:     uptime,
		PerWorker:  make([]PoolWorkerState, p.workers),
	}
	for i := range st.PerWorker {
		ws := p.workerStats(i)
		st.PerWorker[i] = PoolWorkerState{WorkerStats: ws}
		if uptime > 0 {
			st.PerWorker[i].Utilization = float64(ws.Busy) / float64(uptime)
		}
	}
	return st
}

// workerStats reads one worker's lifetime counters.
func (p *Pool) workerStats(w int) WorkerStats {
	wc := &p.perWorker[w]
	return WorkerStats{Jobs: int(wc.jobs.Load()), Busy: time.Duration(wc.busyNanos.Load())}
}

// Started reports whether a worker has started running the job. It keeps
// reporting true after the job finishes, and never does for a job canceled
// before it started.
func (h *Handle) Started() bool { return h.started.Load() }

// Cancel aborts the job with the given cause (ErrCanceled when nil):
// queued jobs finish without running (Worker -1, the cause as Err),
// in-flight simulations stop between gates. Canceling a finished job is a
// no-op.
func (h *Handle) Cancel(cause error) {
	if cause == nil {
		cause = ErrCanceled
	}
	h.cancel(cause)
}
