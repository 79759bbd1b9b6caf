package batch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sim"
)

// approxJobs builds jobs that exercise the memory-driven strategy on seeded
// random circuits — enough structure that approximation rounds actually
// fire, small enough that a batch of dozens stays fast.
func approxJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		c := gen.RandomCliffordT(7, 120, int64(i))
		jobs[i] = Job{
			Name:    fmt.Sprintf("rct_seed%d", i),
			Circuit: c,
			NewStrategy: func() core.Strategy {
				return &core.MemoryDriven{Threshold: 16, RoundFidelity: 0.95, Growth: 1.2}
			},
		}
	}
	return jobs
}

func TestRunCompletesAllJobs(t *testing.T) {
	jobs := approxJobs(9)
	res, err := Run(context.Background(), jobs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 3 {
		t.Errorf("workers = %d, want 3", res.Workers)
	}
	if res.Completed != len(jobs) || res.Failed != 0 || res.Canceled != 0 {
		t.Fatalf("completed/failed/canceled = %d/%d/%d, want %d/0/0",
			res.Completed, res.Failed, res.Canceled, len(jobs))
	}
	var cpu time.Duration
	for i, jr := range res.Jobs {
		if jr.Index != i {
			t.Errorf("job %d reported index %d", i, jr.Index)
		}
		if jr.Name != jobs[i].Name {
			t.Errorf("job %d name %q, want %q", i, jr.Name, jobs[i].Name)
		}
		if jr.Err != nil || jr.Result == nil {
			t.Fatalf("job %d: err=%v result=%v", i, jr.Err, jr.Result)
		}
		if jr.Worker < 0 || jr.Worker >= 3 {
			t.Errorf("job %d ran on worker %d", i, jr.Worker)
		}
		if jr.Elapsed < jr.Result.Runtime {
			t.Errorf("job %d elapsed %v below its simulation runtime %v",
				i, jr.Elapsed, jr.Result.Runtime)
		}
		cpu += jr.Elapsed
	}
	if res.CPUTime != cpu {
		t.Errorf("CPUTime %v != sum of elapsed times %v", res.CPUTime, cpu)
	}
}

// jobKey collects every deterministic field of a job result.
type jobKey struct {
	seed           int64
	maxDD, finalDD int
	rounds         int
	estFid, bound  float64
}

func keyOf(jr JobResult) jobKey {
	return jobKey{
		seed:    jr.Seed,
		maxDD:   jr.Result.MaxDDSize,
		finalDD: jr.Result.FinalDDSize,
		rounds:  len(jr.Result.Rounds),
		estFid:  jr.Result.EstimatedFidelity,
		bound:   jr.Result.FidelityBound,
	}
}

func TestSerialAndParallelAgreeBitExactly(t *testing.T) {
	jobs := approxJobs(8)
	serial, err := Run(context.Background(), jobs, Options{Workers: 1, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), approxJobs(8), Options{Workers: 8, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Jobs {
		s, p := keyOf(serial.Jobs[i]), keyOf(parallel.Jobs[i])
		if s != p {
			t.Errorf("job %d diverged: serial %+v parallel %+v", i, s, p)
		}
	}
}

func TestMeasurementSeedDerivation(t *testing.T) {
	// A register of minus states measured mid-circuit: outcomes are
	// RNG-driven, so they depend only on the derived seed.
	mkJob := func(name string, seed int64) Job {
		c := circuit.New(4, "meas")
		for q := 0; q < 4; q++ {
			c.H(q)
		}
		for q := 0; q < 4; q++ {
			c.Measure(q)
		}
		return Job{Name: name, Circuit: c, Options: sim.Options{MeasurementSeed: seed}}
	}
	jobs := []Job{mkJob("derived0", 0), mkJob("derived1", 0), mkJob("explicit", 123)}
	res, err := Run(context.Background(), jobs, Options{Workers: 3, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Jobs[0].Seed, Seed(7, 0); got != want {
		t.Errorf("job 0 seed %d, want derived %d", got, want)
	}
	if got, want := res.Jobs[1].Seed, Seed(7, 1); got != want {
		t.Errorf("job 1 seed %d, want derived %d", got, want)
	}
	if res.Jobs[0].Seed == res.Jobs[1].Seed {
		t.Error("distinct jobs derived the same seed")
	}
	if res.Jobs[2].Seed != 123 {
		t.Errorf("explicit seed overridden: got %d", res.Jobs[2].Seed)
	}

	// Re-running with the same base seed reproduces the measurement record.
	res2, err := Run(context.Background(), []Job{mkJob("derived0", 0)}, Options{Workers: 1, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Jobs[0].Result.Measurements, res2.Jobs[0].Result.Measurements
	if len(a) != len(b) {
		t.Fatalf("measurement counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("measurement %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSeedStableAndSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := Seed(99, i)
		if s == 0 {
			t.Fatalf("Seed(99, %d) = 0; zero means 'derive' to the engine", i)
		}
		if seen[s] {
			t.Fatalf("Seed(99, %d) collides", i)
		}
		seen[s] = true
		if s != Seed(99, i) {
			t.Fatalf("Seed(99, %d) not stable", i)
		}
	}
}

func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := approxJobs(24)
	for i := range jobs {
		jobs[i].Finalize = func(*JobResult) {
			cancel() // stop the batch as soon as anything finishes
		}
	}
	res, err := Run(ctx, jobs, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if res.Canceled == 0 {
		t.Error("no jobs reported canceled")
	}
	if res.Completed == 0 {
		t.Error("expected at least the first job to complete")
	}
	if res.Completed+res.Failed+res.Canceled != 24 {
		t.Errorf("outcome counts %d+%d+%d don't sum to 24",
			res.Completed, res.Failed, res.Canceled)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil && !jr.Canceled() {
			t.Errorf("job %d failed with non-cancellation error: %v", jr.Index, jr.Err)
		}
		if jr.Worker == -1 && jr.Err == nil {
			t.Errorf("job %d never started yet has no error", jr.Index)
		}
	}
}

func TestContextCancelAbortsInFlightRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the simulation must abort between gates
	s := sim.New()
	_, err := s.Run(gen.QFT(8), sim.Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrapped context.Canceled", err)
	}
}

func TestPerJobTimeout(t *testing.T) {
	jobs := approxJobs(3)
	jobs[1].Timeout = -1 // negative per-job override falls back to batch timeout
	res, err := Run(context.Background(), jobs, Options{
		Workers:    1,
		JobTimeout: time.Nanosecond, // expires immediately, between gates
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != len(jobs) {
		t.Fatalf("failed = %d, want %d", res.Failed, len(jobs))
	}
	for _, jr := range res.Jobs {
		if !errors.Is(jr.Err, sim.ErrDeadlineExceeded) {
			t.Errorf("job %d error %v does not wrap ErrDeadlineExceeded", jr.Index, jr.Err)
		}
		if jr.Canceled() {
			t.Errorf("job %d deadline miscounted as cancellation", jr.Index)
		}
		if jr.Elapsed <= 0 {
			t.Errorf("job %d ran (and failed) but has no elapsed time", jr.Index)
		}
	}
	if res.CPUTime <= 0 {
		t.Error("CPUTime omits failed jobs")
	}
}

func TestCustomCancelCauseCountsAsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	boom := errors.New("user abort")
	jobs := approxJobs(16)
	for i := range jobs {
		jobs[i].Finalize = func(*JobResult) { cancel(boom) }
	}
	res, err := Run(ctx, jobs, Options{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the custom cause", err)
	}
	if res.Canceled == 0 {
		t.Error("custom-cause cancellation not counted as Canceled")
	}
	if res.Failed != 0 {
		t.Errorf("custom-cause cancellation miscounted as %d failures", res.Failed)
	}
}

func TestNilCircuitFailsJobNotBatch(t *testing.T) {
	jobs := approxJobs(2)
	jobs = append(jobs, Job{Name: "broken"})
	res, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Failed != 1 {
		t.Fatalf("completed/failed = %d/%d, want 2/1", res.Completed, res.Failed)
	}
	if res.Jobs[2].Err == nil {
		t.Fatal("nil circuit accepted")
	}
}

func TestEmptyBatch(t *testing.T) {
	res, err := Run(context.Background(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 0 || res.Completed != 0 {
		t.Fatalf("unexpected result for empty batch: %+v", res)
	}
}

func TestNilContextDefaultsToBackground(t *testing.T) {
	res, err := Run(nil, approxJobs(2), Options{Workers: 2}) //nolint:staticcheck // nil ctx is part of the contract
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2", res.Completed)
	}
}

// TestStressMoreJobsThanWorkers floods a small pool; run under -race this
// doubles as the engine's data-race stress test (CI runs go test -race).
func TestStressMoreJobsThanWorkers(t *testing.T) {
	const n = 64
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name:    fmt.Sprintf("ghz%d", i),
			Circuit: gen.GHZ(3 + i%5),
			NewStrategy: func() core.Strategy {
				return &core.MemoryDriven{Threshold: 4, RoundFidelity: 0.9, Growth: 1.5}
			},
		}
	}
	var finalized atomic.Int32
	for i := range jobs {
		jobs[i].Finalize = func(*JobResult) { finalized.Add(1) }
	}
	res, err := Run(context.Background(), jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed = %d, want %d", res.Completed, n)
	}
	if got := finalized.Load(); got != n {
		t.Fatalf("Finalize fired %d times, want %d", got, n)
	}
}

// jobEventCounter is a per-job observer tallying lifecycle events.
type jobEventCounter struct {
	core.NopObserver
	gates, finishes int
}

func (o *jobEventCounter) OnGate(core.GateEvent)     { o.gates++ }
func (o *jobEventCounter) OnFinish(core.FinishEvent) { o.finishes++ }

func TestPerJobObserverPlumbing(t *testing.T) {
	circs := []*circuit.Circuit{gen.QFT(6), gen.GHZ(7), gen.QFT(5)}
	observers := make([]*jobEventCounter, len(circs))
	jobs := make([]Job, len(circs))
	for i, c := range circs {
		observers[i] = &jobEventCounter{}
		jobs[i] = Job{Name: c.Name, Circuit: c, Observer: observers[i]}
	}
	res, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d", res.Completed, len(jobs))
	}
	for i, obs := range observers {
		if obs.gates != circs[i].Len() {
			t.Errorf("job %d: OnGate fired %d times for %d gates", i, obs.gates, circs[i].Len())
		}
		if obs.finishes != 1 {
			t.Errorf("job %d: OnFinish fired %d times", i, obs.finishes)
		}
	}
}
