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
	handles := make([]*Handle, len(jobs))
	for i := range jobs {
		h, err := p.Submit(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if h.Index() != i {
			t.Fatalf("submission index %d, want %d", h.Index(), i)
		}
		handles[i] = h
	}
	for i, h := range handles {
		jr, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
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
	h1, err := p.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked h1 up, then fill the one queue slot.
	for !h1.Started() {
		time.Sleep(time.Millisecond)
	}
	h2, err := p.Submit(poolJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(poolJob(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err %v, want ErrQueueFull", err)
	}
	h1.Cancel(nil)
	if jr, err := h1.Wait(context.Background()); err != nil || !jr.Canceled() {
		t.Fatalf("canceled in-flight job: res %+v wait err %v", jr, err)
	}
	if jr, err := h2.Wait(context.Background()); err != nil || jr.Err != nil {
		t.Fatalf("queued job after cancel: %+v, %v", jr, err)
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
	h1, err := p.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Submit(poolJob(1))
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("not needed anymore")
	h2.Cancel(cause)
	h1.Cancel(nil)
	jr, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
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
	h, err := p.Submit(Job{
		Name:    "slow",
		Circuit: gen.RandomCliffordT(14, 100000, 1),
		Timeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(jr.Err, sim.ErrDeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", jr.Err)
	}
}

func TestPoolFinalizeRunsOnWorkerWithLiveManager(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2})
	defer p.Close()
	handles := make([]*Handle, 6)
	probs := make([]float64, len(handles))
	for i := range handles {
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
		h, err := p.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		jr, err := h.Wait(context.Background())
		if err != nil || jr.Err != nil {
			t.Fatalf("job %d: %v / %v", i, err, jr.Err)
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
	h, err := p.Submit(Job{Name: "slow", Circuit: gen.RandomCliffordT(14, 100000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for !h.Started() {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err %v, want deadline exceeded", err)
	}
	jr, ok := h.Result()
	if !ok {
		t.Fatal("job still unfinished after Shutdown returned")
	}
	if !jr.Canceled() {
		t.Fatalf("job err %v, want canceled", jr.Err)
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
