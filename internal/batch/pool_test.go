package batch

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sim"
)

// submit submits job to p. The returned channel receives the job's result
// from its Finalize hook (wrapped around the job's own), once the pool has
// finished the job.
func submit(t *testing.T, p *Pool, job Job) (*Handle, <-chan JobResult) {
	t.Helper()
	done := make(chan JobResult, 1)
	hook := job.Finalize
	job.Finalize = func(jr *JobResult) {
		if hook != nil {
			hook(jr)
		}
		done <- *jr
	}
	h, err := p.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	return h, done
}

func poolJob(seed int64) Job {
	return Job{
		Name:    "rct",
		Circuit: gen.RandomCliffordT(6, 60, seed),
		NewStrategy: func() core.Strategy {
			return &core.MemoryDriven{Threshold: 16, RoundFidelity: 0.97}
		},
	}
}

func TestPoolMatchesClosedBatch(t *testing.T) {
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = poolJob(int64(i))
	}
	closed, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool(PoolOptions{Workers: 2})
	defer p.Close()
	results := make([]<-chan JobResult, len(jobs))
	for i := range jobs {
		var h *Handle
		h, results[i] = submit(t, p, jobs[i])
		if h.index != i {
			t.Fatalf("submission index %d, want %d", h.index, i)
		}
	}
	for i, done := range results {
		jr := <-done
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		want := closed.Jobs[i]
		if jr.Seed != want.Seed {
			t.Errorf("job %d seed %d, want %d (pool must derive seeds like Run)", i, jr.Seed, want.Seed)
		}
		if jr.Result.MaxDDSize != want.Result.MaxDDSize ||
			jr.Result.EstimatedFidelity != want.Result.EstimatedFidelity {
			t.Errorf("job %d diverges from closed batch: maxDD %d vs %d, fidelity %v vs %v",
				i, jr.Result.MaxDDSize, want.Result.MaxDDSize,
				jr.Result.EstimatedFidelity, want.Result.EstimatedFidelity)
		}
	}
	st := p.State()
	if st.Submitted != 5 || st.Finished != 5 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("pool state after drain: %+v", st)
	}
}

func TestPoolQueueFullAndClosed(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	// Block the single worker with a canceled-later job so the queue fills.
	slow := Job{Name: "slow", Circuit: gen.RandomCliffordT(14, 100000, 1)}
	h1, done1 := submit(t, p, slow)
	// Wait until the worker picked h1 up, then fill the one queue slot.
	for !h1.Started() {
		time.Sleep(time.Millisecond)
	}
	_, done2 := submit(t, p, poolJob(2))
	if _, err := p.Submit(poolJob(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err %v, want ErrQueueFull", err)
	}
	h1.Cancel(nil)
	if jr := <-done1; !jr.Canceled() {
		t.Fatalf("canceled in-flight job: res %+v", jr)
	}
	if jr := <-done2; jr.Err != nil {
		t.Fatalf("queued job after cancel: %+v", jr)
	}
	p.Close()
	if _, err := p.Submit(poolJob(4)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after close: err %v, want ErrShutdown", err)
	}
}

func TestPoolCancelQueued(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 4})
	defer p.Close()
	slow := Job{Name: "slow", Circuit: gen.RandomCliffordT(14, 100000, 1)}
	h1, _ := submit(t, p, slow)
	h2, done2 := submit(t, p, poolJob(1))
	cause := errors.New("not needed anymore")
	h2.Cancel(cause)
	h1.Cancel(nil)
	jr := <-done2
	if !errors.Is(jr.Err, cause) {
		t.Fatalf("queued cancel cause: got %v, want %v", jr.Err, cause)
	}
	if jr.Result != nil {
		t.Error("canceled queued job must not carry a result")
	}
}

func TestPoolJobTimeout(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	_, done := submit(t, p, Job{
		Name:    "slow",
		Circuit: gen.RandomCliffordT(14, 100000, 1),
		Timeout: 20 * time.Millisecond,
	})
	jr := <-done
	if !errors.Is(jr.Err, sim.ErrDeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", jr.Err)
	}
}

func TestPoolFinalizeRunsOnWorkerWithLiveManager(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2})
	defer p.Close()
	results := make([]<-chan JobResult, 6)
	probs := make([]float64, len(results))
	for i := range results {
		i := i
		job := Job{
			Name:    "ghz",
			Circuit: gen.GHZ(5),
			// The final state is only valid here, on the worker: the pool
			// drops the manager once Finalize returns.
			Finalize: func(r *JobResult) {
				if r.Err != nil || r.Result == nil {
					return
				}
				probs[i] = r.Result.Manager.Probability(r.Result.Final, 0, 5)
				r.Name = r.Name + "-finalized"
			},
		}
		_, results[i] = submit(t, p, job)
	}
	for i, done := range results {
		jr := <-done
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if jr.Name != "ghz-finalized" {
			t.Errorf("job %d: Finalize mutation lost (name %q)", i, jr.Name)
		}
		if d := probs[i] - 0.5; d > 1e-9 || d < -1e-9 {
			t.Errorf("job %d: P(|00000⟩) = %v, want 0.5", i, probs[i])
		}
	}
}

func TestPoolShutdownCancelsOnContextExpiry(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	h, done := submit(t, p, Job{Name: "slow", Circuit: gen.RandomCliffordT(14, 100000, 1)})
	for !h.Started() {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err %v, want deadline exceeded", err)
	}
	select {
	case jr := <-done:
		if !jr.Canceled() {
			t.Fatalf("job err %v, want canceled", jr.Err)
		}
	default:
		t.Fatal("job still unfinished after Shutdown returned")
	}
}

func TestClosedBatchFinalize(t *testing.T) {
	jobs := []Job{poolJob(1), {Name: "nil circuit"}}
	ran := make([]bool, 2)
	for i := range jobs {
		i := i
		jobs[i].Finalize = func(r *JobResult) { ran[i] = true }
	}
	res, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ran[0] || !ran[1] {
		t.Errorf("Finalize ran = %v, want on success and failure alike", ran)
	}
	if res.Completed != 1 || res.Failed != 1 {
		t.Errorf("batch counts: %+v", res)
	}
}
