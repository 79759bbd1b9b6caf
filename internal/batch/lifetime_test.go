package batch

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/sim"
)

// trackManagers sets each job's Finalize to record a weak pointer to the
// job's DD manager, failing when the manager or final state is missing
// there: Finalize is where both must still be live.
func trackManagers(t *testing.T, jobs []Job) []weak.Pointer[dd.Manager] {
	t.Helper()
	wps := make([]weak.Pointer[dd.Manager], len(jobs))
	for i := range jobs {
		jobs[i].Finalize = func(r *JobResult) {
			if r.Err != nil || r.Result == nil {
				t.Errorf("job %d: %v", i, r.Err)
				return
			}
			m := r.Result.Manager
			if m == nil {
				t.Errorf("job %d: no manager inside Finalize", i)
				return
			}
			if r.Result.Final.N == nil && r.Result.Density == nil {
				t.Errorf("job %d: no final state inside Finalize", i)
			}
			wps[i] = weak.Make(m)
			if wps[i].Value() != m {
				t.Errorf("job %d: manager not live inside Finalize", i)
			}
		}
	}
	return wps
}

// checkReleased asserts that a finished job's result holds no reference to
// its final state and that, after a collection, its manager is gone.
func checkReleased(t *testing.T, i int, jr JobResult, wp weak.Pointer[dd.Manager]) {
	t.Helper()
	if jr.Result == nil {
		t.Fatalf("job %d: no result (err %v)", i, jr.Err)
	}
	if jr.Result.Manager != nil || jr.Result.Final != (dd.VEdge{}) || jr.Result.Density != nil {
		t.Errorf("job %d: result still references its final state after Finalize", i)
	}
	if wp.Value() != nil {
		t.Errorf("job %d: DD manager still reachable after the job finished", i)
	}
}

// TestRunResultPinsNoManager: a retained batch.Result must not keep any
// job's DD manager alive once Run has returned.
func TestRunResultPinsNoManager(t *testing.T) {
	jobs := approxJobs(4)
	jobs = append(jobs, Job{
		Name:    "ghz_density",
		Circuit: gen.GHZ(3),
		Options: sim.Options{Backend: sim.BackendDensity},
	})
	wps := trackManagers(t, jobs)
	res, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for i, jr := range res.Jobs {
		checkReleased(t, i, jr, wps[i])
	}
	runtime.KeepAlive(res)
}

// TestPoolHandlePinsNoManager: a retained pool Handle must not keep its
// job's DD manager alive once the job has finished.
func TestPoolHandlePinsNoManager(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2})
	defer p.Close()
	jobs := []Job{poolJob(1), poolJob(2), poolJob(3)}
	wps := trackManagers(t, jobs)
	handles := make([]*Handle, len(jobs))
	for i, job := range jobs {
		h, err := p.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	p.Close() // drains the queue: every handle holds its final result
	runtime.GC()
	for i, h := range handles {
		checkReleased(t, i, h.res, wps[i])
	}
	runtime.KeepAlive(handles)
}
