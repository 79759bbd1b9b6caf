// Command perfbench is the repository benchmark: it drives the simulator's
// three shapes of use (the paper's library batches, the simulation service
// under a job mix, and the cached service path behind the cluster router),
// checks every output, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer ledger — as one JSON object on its last line.
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	_ "repro/internal/order" // registers the "reorder" strategy
)

// setupRuns is how many times set-up runs; setup_s is their median.
const setupRuns = 5

// hardCap bounds a timed window that is still short of samples, so a run
// always ends well inside its time limit.
const hardCap = 90 * time.Second

// tailQuantile is the percentile reported as tail_ms; a window runs until
// it has minBeyond samples beyond it.
const tailQuantile = 0.90

// workload describes one benchmark workload.
type workload struct {
	why   string
	setup func(ctx context.Context, seed int64) (bench, error)
}

// bench is one set-up instance of a workload.
type bench interface {
	// window runs the timed closed loop for at least d and until minJobs jobs
	// completed, then checks every output. With a non-nil tracer it also
	// records the per-layer spans and counters.
	window(ctx context.Context, d time.Duration, minJobs int, tr *tracer) (*window, error)
	// ledger adds the workload's own per-layer metrics of a traced window.
	ledger(ctx context.Context, tr *tracer, w *window, led map[string]float64)
	// after runs untimed probes once the measurement is over and returns
	// lines for the report.
	after(ctx context.Context) []string
	close()
}

var workloads = map[string]workload{
	"paper":     {why: "library batches in the paper's Table I shapes", setup: setupPaper},
	"serve-mix": {why: "HTTP submit to result for a seeded mix of cache misses", setup: setupMix},
	"serve-hot": {why: "cache hits through the router", setup: setupHot},
}

// endToEnd lists the metrics of the untraced run with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"rss_mb", "MB"},
	{"peak_nodes", "nodes"},
	{"fidelity_min", "ratio"},
}

// perLayer lists the metrics of the traced run with their units.
var perLayer = []struct{ name, unit string }{
	{"qasm.parse_ms", "ms"},
	{"serve.hash_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.payload_kb", "KB"},
	{"serve.cache_hit_ratio", "ratio"},
	{"cluster.hop_ms", "ms"},
	{"cluster.affinity_ratio", "ratio"},
	{"cluster.retries", "count"},
	{"batch.util", "ratio"},
	{"batch.imbalance", "ratio"},
	{"sim.gate_ms", "ms"},
	{"sim.gates", "count"},
	{"sim.finish_ms", "ms"},
	{"sim.sample_ms", "ms"},
	{"core.approx_ms", "ms"},
	{"core.rounds", "count"},
	{"core.nodes_removed", "count"},
	{"core.round_yield", "ratio"},
	{"order.sift_ms", "ms"},
	{"order.swaps", "count"},
	{"order.sift_yield", "ratio"},
	{"dd.cleanup_ms", "ms"},
	{"dd.cleanups", "count"},
	{"dd.nodes_created", "count"},
	{"dd.recycled_ratio", "ratio"},
	{"dd.mul_hit_ratio", "ratio"},
	{"dd.add_hit_ratio", "ratio"},
	{"dd.mul_evictions", "count"},
	{"dd.ns_per_node_gate", "ns"},
	{"cnum.lookups", "count"},
	{"cnum.hit_ratio", "ratio"},
	{"cnum.peak", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb_per_job", "MB"},
	{"trace.untraced_jobs_per_s", "1/s"},
	{"trace.traced_jobs_per_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
}

// window is the outcome of one timed window. The window is cut into
// segments of about the same work (a job-list pass, a mix cycle, a block of
// requests); rates are medians over segments, so a few seconds of machine
// contention move one segment instead of the whole figure.
type window struct {
	workers, clients int
	start, end       usage
	attempted        int
	failed           int
	problems         []string
	latMS            []float64 // per correct job
	peakNodes        int
	fidMin           float64

	marks   []usage // segment boundaries, marks[0] == start
	segJobs []int   // correct jobs per segment
	pending int     // correct jobs since the last mark
}

func newWindow(workers, clients int) *window {
	return &window{workers: workers, clients: clients, fidMin: math.Inf(1)}
}

// begin starts the timed window.
func (w *window) begin() {
	w.start = readUsage()
	w.marks = []usage{w.start}
}

// mark closes a segment at the current instant.
func (w *window) mark() {
	w.marks = append(w.marks, readUsage())
	w.segJobs = append(w.segJobs, w.pending)
	w.pending = 0
}

// finish ends the timed window; jobs after the last mark stay out of the
// segment medians.
func (w *window) finish() { w.end = readUsage() }

// ok records a job whose output passed every check.
func (w *window) ok(latency time.Duration, peak int, fidelity float64) {
	w.attempted++
	w.pending++
	w.latMS = append(w.latMS, ms(latency))
	if peak > w.peakNodes {
		w.peakNodes = peak
	}
	w.fidMin = math.Min(w.fidMin, fidelity)
}

// fail records a job that failed, was refused, or returned a wrong output.
func (w *window) fail(format string, args ...any) {
	w.attempted++
	w.failed++
	if len(w.problems) < 20 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

func (w *window) wall() time.Duration { return w.end.wall.Sub(w.start.wall) }

// jobsPerS is the median over segments of correct jobs per second.
func (w *window) jobsPerS() float64 {
	var rates []float64
	for k, n := range w.segJobs {
		rates = append(rates, float64(n)/w.marks[k+1].wall.Sub(w.marks[k].wall).Seconds())
	}
	return median(rates)
}

// cpuMSPerJob is the median over segments of process CPU per correct job.
func (w *window) cpuMSPerJob() float64 {
	var per []float64
	for k, n := range w.segJobs {
		if n > 0 {
			per = append(per, ms(w.marks[k+1].cpu-w.marks[k].cpu)/float64(n))
		}
	}
	return median(per)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "paper", "workload: paper, serve-mix or serve-hot")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 15, "length of the timed window")
	traced := flag.Int("trace", 0, "1 prints the per-layer ledger of a traced run instead of the end-to-end metrics")
	writeRef := flag.String("write-reference", "", "compute the paper workload's reference node counts into this file and exit")
	flag.Parse()

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(context.Background(), *name, wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(ctx context.Context, name string, wl workload, seed int64, d time.Duration, traced bool) (*report, error) {
	fmt.Printf("workload %s (%s), seed %d, window %v\n", name, wl.why, seed, d)
	var (
		b      bench
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		nb, err := wl.setup(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if b != nil {
			b.close()
		}
		b = nb
	}
	defer func() { b.close() }()
	minJobs := samplesFor(tailQuantile)

	w, err := b.window(ctx, d, minJobs, nil)
	if err != nil {
		return nil, err
	}
	describe(w)
	if !traced {
		for _, line := range b.after(ctx) {
			fmt.Println(line)
		}
		return endToEndReport(w, median(setups)), nil
	}

	// The traced window repeats the measurement with the spans on, on a
	// fresh set-up so the first window's memory is gone; the untraced
	// window above is its baseline for the tracing overhead.
	nb, err := wl.setup(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.close()
	b = nb
	tr := newTracer()
	tw, err := b.window(ctx, d, minJobs, tr)
	if err != nil {
		return nil, err
	}
	describe(tw)
	led := ledger(tr, tw)
	b.ledger(ctx, tr, tw, led)
	led["trace.untraced_jobs_per_s"] = w.jobsPerS()
	led["trace.traced_jobs_per_s"] = tw.jobsPerS()
	led["trace.overhead_ratio"] = w.jobsPerS() / tw.jobsPerS()
	out := filepath.Join(buildDir(), fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
	if err := tr.writeFile(out); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("spans written to %s\n", out)
	rep := layerReport(led)
	rep.Correct = w.failed == 0 && tw.failed == 0
	rep.Attempted, rep.Failed = w.attempted+tw.attempted, w.failed+tw.failed
	return rep, nil
}

func layerReport(led map[string]float64) *report {
	rep := &report{Metrics: map[string]metric{}}
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{Value: led[m.name], Unit: m.unit}
	}
	return rep
}

// buildDir is where the run leaves its trace files: the build directory the
// runner script uses.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// describe prints the window's sample counts and any failures.
func describe(w *window) {
	fmt.Printf("window: %d workers, %d clients, %d jobs attempted, %d failed, %d correct in %.2fs (%d segments)\n",
		w.workers, w.clients, w.attempted, w.failed, len(w.latMS), w.wall().Seconds(), len(w.segJobs))
	p50, _ := hdQuantile(w.latMS, 0.5)
	if tail, ok := hdQuantile(w.latMS, tailQuantile); ok {
		fmt.Printf("latency: p50 %.3f ms, p%g %.3f ms over %d jobs\n", p50, 100*tailQuantile, tail, len(w.latMS))
	}
	fmt.Printf("fail_ratio %.4f\n", float64(w.failed)/float64(max(w.attempted, 1)))
	for _, p := range w.problems {
		fmt.Println("FAILED:", p)
	}
}

func endToEndReport(w *window, setupS float64) *report {
	p50, _ := hdQuantile(w.latMS, 0.5)
	tail, tailOK := hdQuantile(w.latMS, tailQuantile)
	rep := &report{
		Correct:   w.failed == 0 && len(w.segJobs) > 0 && tailOK,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics:   map[string]metric{},
	}
	if !tailOK {
		fmt.Printf("FAILED: only %d jobs, too few for p%g\n", len(w.latMS), 100*tailQuantile)
	}
	values := map[string]float64{
		"setup_s":        setupS,
		"jobs_per_s":     w.jobsPerS(),
		"p50_ms":         p50,
		"tail_ms":        tail,
		"cpu_ms_per_job": w.cpuMSPerJob(),
		"rss_mb":         float64(w.end.maxRSS) / (1 << 20),
		"peak_nodes":     float64(w.peakNodes),
		"fidelity_min":   w.fidMin,
	}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return rep
}

// ledger derives the per-layer metrics every workload shares from the
// tracer's spans and counters. Per-job figures divide by the jobs traced
// through the simulator; layers a workload does not reach report 0.
func ledger(tr *tracer, w *window) map[string]float64 {
	led := map[string]float64{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	jobs := tr.sum("jobs")
	perJob := func(v float64) float64 { return ratio(v, jobs) }

	led["qasm.parse_ms"] = median(tr.durations("qasm.parse"))
	led["serve.hash_ms"] = median(tr.durations("serve.hash"))
	led["serve.submit_ms"] = median(tr.durations("serve.submit"))
	led["serve.queue_ms"] = median(tr.durations("serve.queue"))
	led["serve.result_ms"] = median(tr.durations("serve.result"))
	led["serve.payload_kb"] = ratio(tr.sum("serve.payload_bytes"), 1024*tr.sum("serve.payloads"))

	led["sim.gate_ms"] = perJob(tr.totalMS("sim.gate"))
	led["sim.gates"] = perJob(tr.sum("sim.gates"))
	led["sim.finish_ms"] = perJob(tr.totalMS("sim.finish"))
	led["sim.sample_ms"] = perJob(tr.totalMS("sim.sample"))
	led["core.approx_ms"] = perJob(tr.totalMS("core.approx"))
	led["core.rounds"] = perJob(tr.sum("core.rounds"))
	led["core.nodes_removed"] = perJob(tr.sum("core.nodes_removed"))
	led["core.round_yield"] = ratio(tr.sum("core.cut"), tr.sum("core.before"))
	led["order.sift_ms"] = perJob(tr.totalMS("order.sift"))
	led["order.swaps"] = perJob(tr.sum("order.swaps"))
	led["order.sift_yield"] = ratio(tr.sum("order.cut"), tr.sum("order.before"))
	led["dd.cleanup_ms"] = perJob(tr.totalMS("dd.cleanup"))
	led["dd.cleanups"] = perJob(tr.sum("dd.cleanups"))
	led["dd.nodes_created"] = perJob(tr.sum("dd.nodes_created"))
	led["dd.recycled_ratio"] = ratio(tr.sum("dd.recycled"), tr.sum("dd.nodes_created"))
	led["dd.mul_hit_ratio"] = ratio(tr.sum("dd.mul_hits"), tr.sum("dd.mul_lookups"))
	led["dd.add_hit_ratio"] = ratio(tr.sum("dd.add_hits"), tr.sum("dd.add_lookups"))
	led["dd.mul_evictions"] = perJob(tr.sum("dd.mul_evictions"))
	led["dd.ns_per_node_gate"] = ratio(tr.sum("sim.gate_ns"), tr.sum("dd.size_before"))
	led["cnum.lookups"] = perJob(tr.sum("cnum.lookups"))
	led["cnum.hit_ratio"] = ratio(tr.sum("cnum.hits"), tr.sum("cnum.lookups"))
	led["cnum.peak"] = tr.maxOf("cnum.peak")

	led["go.gc_cpu_frac"] = ratio(w.end.gcCPU-w.start.gcCPU, w.end.allCPU-w.start.allCPU)
	led["go.alloc_mb_per_job"] = ratio(float64(w.end.alloced-w.start.alloced)/(1<<20), float64(max(len(w.latMS), 1)))
	return led
}
