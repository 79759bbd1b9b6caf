package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
)

// paperWorkers is the batch engine's worker count (the machine has 2 CPUs).
const paperWorkers = 2

// canaryDeadline bounds each canary job.
const canaryDeadline = 3 * time.Second

// reference holds the peak and final node counts of every job the paper
// workload can generate. Regenerate with
//
//	go run . -write-reference reference.json
//
// from this directory; a change of these counts is a change of results.
//
//go:embed reference.json
var referenceJSON []byte

type refCounts struct {
	Peak  int `json:"peak"`
	Final int `json:"final"`
}

type paperBench struct {
	jobs []paperJob
	ref  map[string]refCounts
}

func setupPaper(ctx context.Context, seed int64) (bench, error) {
	jobs, err := paperJobs(seed)
	if err != nil {
		return nil, err
	}
	var ref map[string]refCounts
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	for _, j := range jobs {
		if _, ok := ref[j.Name]; !ok {
			return nil, fmt.Errorf("reference.json has no entry for %s", j.Name)
		}
	}
	// Warm the process (heap, strategy registry, code paths) with the
	// Shor and Grover jobs of the list before anything is timed.
	var warm []paperJob
	for _, j := range jobs {
		if j.FinalFidelity > 0 {
			warm = append(warm, j)
		}
	}
	if _, err := batch.Run(ctx, batchJobs(warm, nil), batch.Options{Workers: paperWorkers}); err != nil {
		return nil, err
	}
	return &paperBench{jobs: jobs, ref: ref}, nil
}

// batchJobs turns job definitions into batch jobs, each traced through the
// sim, core, order and dd layers when tr is non-nil.
func batchJobs(jobs []paperJob, tr *tracer) []batch.Job {
	out := make([]batch.Job, len(jobs))
	for i, j := range jobs {
		bj := batch.Job{Name: j.Name, Circuit: j.Circuit, NewStrategy: j.Strategy}
		if jt := tr.newJobTrace(int64(i)); jt != nil {
			inner := bj.NewStrategy
			n := j.Circuit.NumQubits
			// NewStrategy runs on the worker right before the simulation:
			// that is where the job's span opens.
			bj.NewStrategy = func() (s core.Strategy) {
				jt.begin(n)
				if inner != nil {
					s = inner()
				}
				return jt.strategy(s)
			}
			bj.Observer = jt
			bj.Finalize = func(r *batch.JobResult) { jt.done(r.Result) }
		}
		out[i] = bj
	}
	return out
}

func (p *paperBench) window(ctx context.Context, d time.Duration, minJobs int, tr *tracer) (*window, error) {
	w := newWindow(paperWorkers, 1)
	var obs *batchTrace
	opts := batch.Options{Workers: paperWorkers}
	if tr != nil {
		obs = &batchTrace{t: tr}
		opts.Observer = obs
	}
	// Each pass runs the whole job list once and is one segment.
	w.begin()
	for time.Since(w.start.wall) < d || len(w.latMS) < minJobs {
		if time.Since(w.start.wall) > hardCap {
			break
		}
		res, err := batch.Run(ctx, batchJobs(p.jobs, tr), opts)
		if err != nil {
			return nil, err
		}
		for i, jr := range res.Jobs {
			p.check(w, p.jobs[i], jr)
		}
		w.mark()
	}
	w.finish()
	if obs != nil {
		util, imb := obs.utilization(paperWorkers, w.wall())
		tr.add("batch.util", util)
		tr.add("batch.imbalance", imb)
	}
	return w, nil
}

// check verifies one job against the fidelity contract and the reference
// node counts.
func (p *paperBench) check(w *window, j paperJob, jr batch.JobResult) {
	r := jr.Result
	ref := p.ref[j.Name]
	switch {
	case jr.Err != nil:
		w.fail("%s: %v", j.Name, jr.Err)
	case j.FinalFidelity > 0 && r.FidelityBound < j.FinalFidelity:
		w.fail("%s: fidelity bound %g below f_final %g", j.Name, r.FidelityBound, j.FinalFidelity)
	case r.EstimatedFidelity < r.FidelityBound:
		w.fail("%s: estimated fidelity %g below its bound %g", j.Name, r.EstimatedFidelity, r.FidelityBound)
	case r.MaxDDSize != ref.Peak || r.FinalDDSize != ref.Final:
		w.fail("%s: nodes peak %d final %d, reference peak %d final %d",
			j.Name, r.MaxDDSize, r.FinalDDSize, ref.Peak, ref.Final)
	default:
		w.ok(jr.Elapsed, r.MaxDDSize, r.EstimatedFidelity)
	}
}

func (p *paperBench) ledger(_ context.Context, tr *tracer, _ *window, led map[string]float64) {
	led["batch.util"] = tr.sum("batch.util")
	led["batch.imbalance"] = tr.sum("batch.imbalance")
}

// after runs the known-defect canary (see canaryJobs). It stays outside the
// timed window and the attempted/failed counts, which hold only the workload
// itself; its outcome is reported on its own lines.
func (p *paperBench) after(ctx context.Context) []string {
	res, err := runCanary(ctx)
	if err != nil {
		return []string{"canary: " + err.Error()}
	}
	lines, _ := canaryReport(res)
	return lines
}

// canaryReport describes each canary job and counts the failed ones.
func canaryReport(res *batch.Result) (lines []string, failed int) {
	for _, jr := range res.Jobs {
		var status string
		if jr.Err != nil {
			failed++
			status = "FAILED: " + jr.Err.Error()
		} else {
			status = fmt.Sprintf("ok, peak %d nodes", jr.Result.MaxDDSize)
		}
		lines = append(lines, fmt.Sprintf("canary %s (deadline %v): %s in %.2fs", jr.Name, canaryDeadline, status, jr.Elapsed.Seconds()))
	}
	lines = append(lines, fmt.Sprintf("canary: %d of %d jobs failed (known defect while > 0)", failed, len(res.Jobs)))
	return lines, failed
}

func runCanary(ctx context.Context) (*batch.Result, error) {
	return batch.Run(ctx, batchJobs(canaryJobs(), nil), batch.Options{Workers: paperWorkers, JobTimeout: canaryDeadline})
}

func (p *paperBench) close() {}

// writeReference computes the node counts of the whole paper job pool.
func writeReference(path string) error {
	jobs, err := paperPool()
	if err != nil {
		return err
	}
	res, err := batch.Run(context.Background(), batchJobs(jobs, nil), batch.Options{Workers: paperWorkers})
	if err != nil {
		return err
	}
	ref := map[string]refCounts{}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			return fmt.Errorf("%s: %w", jr.Name, jr.Err)
		}
		ref[jr.Name] = refCounts{Peak: jr.Result.MaxDDSize, Final: jr.Result.FinalDDSize}
	}
	out, err := json.MarshalIndent(ref, "", "  ") // map keys come out sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
