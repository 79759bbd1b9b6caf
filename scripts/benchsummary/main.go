// Command benchsummary turns the raw `go test -json` benchmark stream that
// `make bench-smoke` captures (BENCH_dd.json) into a parsed, stable-schema
// BENCH_summary.json, and doubles as the CI perf-regression gate:
//
//	benchsummary -in BENCH_dd.json -out BENCH_summary.json
//	benchsummary -check -baseline bench_baseline.json -summary BENCH_summary.json
//
// Summary schema (bench-summary/v1): benchmark name (CPU-count suffix
// stripped) → ns/op, allocs/op, B/op, and any custom metrics the benchmark
// reported (e.g. peak_nodes from BenchmarkSessionOrdering). bench-smoke runs
// every benchmark several times; the summary keeps the fastest run by ns/op,
// and its p99-ns metric, if any, is the minimum over all runs on its own.
//
// In -check mode the tool fails (exit 1) when
//
//   - a baseline benchmark matching -match is missing from the summary, or
//   - its gated time regressed by more than -threshold (relative, after
//     scaling the baseline by the machines' calibration ratio; -min-ns
//     optionally floors out benchmarks measured too briefly to trust). The
//     gated time is ns/op, except for p99Gated, which is held to its p99-ns
//     metric instead, or
//   - its allocs/op or B/op regressed by more than -threshold (these are
//     machine-independent, so they gate unscaled), or
//   - the batch engine stopped scaling: with K = min(NumCPU, 4),
//     BenchmarkBatchRun/workersK must be at least -min-scaling·K/4 times
//     faster than workers1 — the per-worker efficiency of -min-scaling at 4
//     workers (skipped with a note when the summary was measured on 1 CPU), or
//   - the ordering win disappeared: BenchmarkSessionOrdering/scored must
//     keep its peak_nodes metric below BenchmarkSessionOrdering/identity, or
//   - the replace-vs-delete frontier regressed: BenchmarkFrontierPairs must
//     report frontier_dominated == frontier_points (the replace pass keeps
//     fidelity >= delete within the node budget at every swept budget).
//
// BenchmarkRouterRoundTrip (internal/cluster) reports both ns/op and p99-ns
// for a job's submit → terminal trip through simd-router; each sub-benchmark
// is gated on the one whose slow runs stray least from its typical run, so
// the gate trips on regressions rather than noise. Over 11 bench-smoke runs
// on a 2-vCPU VM, the slowest min-of-3 sat above the median by 14% for hit
// (cache hits) p99-ns against 21% for its ns/op, and by 6% for miss (every
// job simulates) ns/op against 23% for its p99-ns. So hit gates p99-ns and
// miss gates ns/op; the ungated number of each is still in the summary.
//
// The summary also records scaling_gate ("ran_workersK" or
// "skipped_num_cpu") so the artifact is explicit about whether, and at which
// worker count, the parallel-scaling gate ran on the producing machine.
//
// New benchmarks absent from the baseline pass with a note; refresh the
// committed baseline with `make bench-baseline`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Schema is the summary format identifier.
const Schema = "bench-summary/v1"

// p99Metric is the custom unit of a benchmark's 99th-percentile op latency.
const p99Metric = "p99-ns"

// p99Gated is the benchmark whose time gate is its p99-ns metric rather
// than ns/op (see the package comment for why).
const p99Gated = "BenchmarkRouterRoundTrip/hit"

// Summary is the BENCH_summary.json document.
type Summary struct {
	Schema string `json:"schema"`
	// CalibrationNs is the runtime of a fixed arithmetic loop measured
	// while the summary was produced (min of several runs). The check
	// scales baseline ns/op by the calibration ratio, so the gate compares
	// work, not machine speed — the committed baseline stays meaningful on
	// faster/slower/throttled runners.
	CalibrationNs float64 `json:"calibration_ns"`
	// NumCPU is the logical CPU count of the machine that produced the
	// summary. The parallel-scaling gate compares workers1 against
	// workersK with K = min(NumCPU, 4), and self-skips on 1 CPU — there
	// is no speedup to measure there.
	NumCPU int `json:"num_cpu"`
	// ScalingGate records whether and how this machine runs the
	// parallel-scaling gate: "ran_workersK" with K = min(NumCPU, 4), or
	// "skipped_num_cpu" on 1 CPU — so a summary artifact is
	// self-describing about which gates its green status actually covers.
	ScalingGate string               `json:"scaling_gate"`
	Benchmarks  map[string]Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

func main() {
	in := flag.String("in", "BENCH_dd.json", "go test -json stream to parse")
	out := flag.String("out", "BENCH_summary.json", "summary file to write")
	check := flag.Bool("check", false, "compare -summary against -baseline instead of parsing")
	baseline := flag.String("baseline", "bench_baseline.json", "committed baseline summary (check mode)")
	summaryPath := flag.String("summary", "BENCH_summary.json", "freshly produced summary (check mode)")
	threshold := flag.Float64("threshold", 0.25, "relative ns/op (and allocs/bytes) regression that fails the gate")
	minNs := flag.Float64("min-ns", 0, "ignore ns/op regressions when the baseline is below this floor (escape hatch for benchmarks too small for their -benchtime)")
	// The multi-worker BatchRun configurations measure parallel scaling,
	// which depends on ambient machine load no calibration can correct, so
	// the gate covers the Batch engine through its serial configuration.
	match := flag.String("match", `Gate|Session|Channel|Lookup|ApproximationPrimitive|QASMParse|CanonicalHash|ResultDecode|StatusDecode|BatchRun/workers1$|RouterRoundTrip`, "regexp selecting the gated benchmarks")
	minScaling := flag.Float64("min-scaling", 2.5, "required BatchRun workers1/workers4 ns/op speedup, pro rata K/4 at K = min(NumCPU, 4) workers; skipped on 1 CPU (0 disables)")
	flag.Parse()

	if *check {
		if err := runCheck(*baseline, *summaryPath, *threshold, *minNs, *match, *minScaling); err != nil {
			fmt.Fprintf(os.Stderr, "benchsummary: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runSummarize(*in, *out); err != nil {
		fmt.Fprintf(os.Stderr, "benchsummary: %v\n", err)
		os.Exit(1)
	}
}

func runSummarize(in, out string) error {
	sum, err := parseStream(in)
	if err != nil {
		return err
	}
	if len(sum.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results found in %s", in)
	}
	sum.CalibrationNs = calibrate()
	sum.NumCPU = runtime.NumCPU()
	if k := scalingWorkers(sum.NumCPU); k > 1 {
		sum.ScalingGate = fmt.Sprintf("ran_workers%d", k)
	} else {
		sum.ScalingGate = "skipped_num_cpu"
	}
	raw, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchsummary: %d benchmarks -> %s\n", len(sum.Benchmarks), out)
	return nil
}

// parseStream reconstructs each package's plain-text output from the JSON
// event stream (go test splits single result lines across events) and parses
// every benchmark result line.
func parseStream(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	perPkg := map[string]*strings.Builder{}
	var pkgs []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			// Tolerate non-JSON noise (build warnings interleaved).
			continue
		}
		if ev.Action != "output" {
			continue
		}
		b := perPkg[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			perPkg[ev.Package] = b
			pkgs = append(pkgs, ev.Package)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// bench-smoke runs every benchmark -count times; keep the fastest run
	// per name (the noise-robust estimator — the minimum is the run least
	// disturbed by the machine), so the 1-iteration numbers are stable
	// enough for a relative regression gate. p99-ns is a timing of its own:
	// the run fastest by ns/op need not hold the lowest tail, so it takes
	// its own minimum.
	sum := &Summary{Schema: Schema, Benchmarks: map[string]Benchmark{}}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		for _, line := range strings.Split(perPkg[pkg].String(), "\n") {
			name, bench, ok := parseResultLine(line)
			if !ok {
				continue
			}
			if prev, seen := sum.Benchmarks[name]; seen {
				if bench.NsPerOp >= prev.NsPerOp {
					bench, prev = prev, bench
				}
				if p, ok := prev.Metrics[p99Metric]; ok && p < bench.Metrics[p99Metric] {
					bench.Metrics[p99Metric] = p
				}
			}
			sum.Benchmarks[name] = bench
		}
	}
	return sum, nil
}

// procSuffix strips the trailing GOMAXPROCS suffix from a benchmark name
// ("BenchmarkFoo/sub-8" → "BenchmarkFoo/sub").
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseResultLine parses one "BenchmarkX-8  N  123 ns/op  45 B/op ..." line.
func parseResultLine(line string) (string, Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", Benchmark{}, false
	}
	fields := strings.Fields(line)
	// name, iteration count, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", Benchmark{}, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", Benchmark{}, false
	}
	b := Benchmark{}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp, sawNs = val, true
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		case "MB/s":
			// throughput is derivable from ns/op; skip
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	if !sawNs {
		return "", Benchmark{}, false
	}
	return procSuffix.ReplaceAllString(fields[0], ""), b, true
}

func loadSummary(path string) (*Summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, Schema)
	}
	return &s, nil
}

func runCheck(baselinePath, summaryPath string, threshold, minNs float64, match string, minScaling float64) error {
	matcher, err := regexp.Compile(match)
	if err != nil {
		return fmt.Errorf("bad -match: %w", err)
	}
	base, err := loadSummary(baselinePath)
	if err != nil {
		return err
	}
	cur, err := loadSummary(summaryPath)
	if err != nil {
		return err
	}

	// Normalize for machine speed: scale the baseline by the calibration
	// ratio (how much slower/faster this machine ran the probe than the
	// baseline machine), clamped so a corrupt calibration cannot disable
	// the gate. Gated times (ns/op or p99-ns) scale; allocs and bytes do not.
	speed := 1.0
	if base.CalibrationNs > 0 && cur.CalibrationNs > 0 {
		speed = cur.CalibrationNs / base.CalibrationNs
		if speed < 0.25 {
			speed = 0.25
		}
		if speed > 4 {
			speed = 4
		}
	}

	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	checked := 0
	for _, name := range names {
		if !matcher.MatchString(name) {
			continue
		}
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline, missing from summary", name))
			continue
		}
		checked++
		bt, unit := gatedTime(name, b)
		ct, _ := gatedTime(name, c)
		if bt < minNs {
			continue // too small to measure at one iteration
		}
		if allowed := bt * speed * (1 + threshold); ct <= 0 {
			failures = append(failures, fmt.Sprintf("%s: %s missing from summary", name, unit))
		} else if ct > allowed {
			failures = append(failures, fmt.Sprintf("%s: %s regressed %.0f -> %.0f (+%.0f%% speed-adjusted, gate is +%.0f%%)",
				name, unit, bt*speed, ct, 100*(ct/(bt*speed)-1), 100*threshold))
		}
		// Allocation counts and bytes are machine-independent, so they gate
		// unscaled. Small absolute slacks keep pool warm-up jitter and
		// one-off allocations from tripping the relative threshold on tiny
		// benchmarks.
		if c.AllocsPerOp > b.AllocsPerOp*(1+threshold)+64 {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %.0f -> %.0f (gate is +%.0f%%)",
				name, b.AllocsPerOp, c.AllocsPerOp, 100*threshold))
		}
		if c.BytesPerOp > b.BytesPerOp*(1+threshold)+4096 {
			failures = append(failures, fmt.Sprintf("%s: B/op regressed %.0f -> %.0f (gate is +%.0f%%)",
				name, b.BytesPerOp, c.BytesPerOp, 100*threshold))
		}
	}

	// Parallel-scaling gate: the multi-worker configurations are excluded
	// from the cross-machine ns/op gate, but within one summary the
	// workers1/workersK ratio is a load-normalized speedup. It needs real
	// cores, so K follows the CPU count and the required speedup follows K;
	// on 1 CPU the gate self-skips with a note.
	if minScaling > 0 {
		k := scalingWorkers(cur.NumCPU)
		need := minScaling * float64(k) / 4
		w1, ok1 := cur.Benchmarks["BenchmarkBatchRun/workers1"]
		wk, okK := cur.Benchmarks[fmt.Sprintf("BenchmarkBatchRun/workers%d", k)]
		switch {
		case k < 2:
			fmt.Printf("benchsummary: note: parallel-scaling gate skipped (summary measured on %d CPU)\n", cur.NumCPU)
		case !ok1 || !okK:
			failures = append(failures, fmt.Sprintf("BenchmarkBatchRun/{workers1,workers%d}: missing from summary (parallel scaling unverified)", k))
		case w1.NsPerOp < need*wk.NsPerOp:
			failures = append(failures, fmt.Sprintf(
				"BenchmarkBatchRun: workers%d speedup %.2fx over workers1, gate requires >= %.2fx",
				k, w1.NsPerOp/wk.NsPerOp, need))
		default:
			fmt.Printf("benchsummary: parallel scaling OK (workers%d %.2fx faster than workers1 on %d CPUs, need %.2fx)\n",
				k, w1.NsPerOp/wk.NsPerOp, cur.NumCPU, need)
		}
	}

	// The ordering win is part of the gate: the scored ordering must keep
	// its peak below identity on the pairs workload.
	ident, okI := cur.Benchmarks["BenchmarkSessionOrdering/identity"]
	scored, okS := cur.Benchmarks["BenchmarkSessionOrdering/scored"]
	switch {
	case !okI || !okS:
		failures = append(failures, "BenchmarkSessionOrdering/{identity,scored}: missing from summary (ordering win unverified)")
	case scored.Metrics["peak_nodes"] <= 0 || ident.Metrics["peak_nodes"] <= 0:
		failures = append(failures, "BenchmarkSessionOrdering: peak_nodes metric missing")
	case scored.Metrics["peak_nodes"] >= ident.Metrics["peak_nodes"]:
		failures = append(failures, fmt.Sprintf(
			"BenchmarkSessionOrdering: scored peak_nodes %.0f did not improve on identity %.0f",
			scored.Metrics["peak_nodes"], ident.Metrics["peak_nodes"]))
	}

	// The replace-vs-delete frontier gate: on the pairs workload the replace
	// pass must dominate or match the delete pass at every swept budget
	// (frontier_dominated == frontier_points, emitted by
	// BenchmarkFrontierPairs in internal/benchtab).
	frontier, okFr := cur.Benchmarks["BenchmarkFrontierPairs"]
	switch {
	case !okFr:
		failures = append(failures, "BenchmarkFrontierPairs: missing from summary (replace-vs-delete frontier unverified)")
	case frontier.Metrics["frontier_points"] <= 0:
		failures = append(failures, "BenchmarkFrontierPairs: frontier_points metric missing or zero")
	case frontier.Metrics["frontier_dominated"] < frontier.Metrics["frontier_points"]:
		failures = append(failures, fmt.Sprintf(
			"BenchmarkFrontierPairs: replace dominated delete on only %.0f of %.0f budgets",
			frontier.Metrics["frontier_dominated"], frontier.Metrics["frontier_points"]))
	}

	for name := range cur.Benchmarks {
		if matcher.MatchString(name) {
			if _, ok := base.Benchmarks[name]; !ok {
				fmt.Printf("benchsummary: note: %s is new (not in baseline); run `make bench-baseline` to pin it\n", name)
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf gate failed (machine speed ratio %.2f):\n  %s", speed, strings.Join(failures, "\n  "))
	}
	fmt.Printf("benchsummary: perf gate OK (%d benchmarks checked, threshold +%.0f%%, machine speed ratio %.2f, ordering win verified: scored %.0f < identity %.0f peak nodes)\n",
		checked, 100*threshold, speed, scored.Metrics["peak_nodes"], ident.Metrics["peak_nodes"])
	return nil
}

// gatedTime returns the timing a benchmark's time gate reads and its unit:
// p99-ns for p99Gated, ns/op for every other benchmark.
func gatedTime(name string, b Benchmark) (float64, string) {
	if name == p99Gated {
		return b.Metrics[p99Metric], p99Metric
	}
	return b.NsPerOp, "ns/op"
}

// scalingWorkers is the BatchRun worker count the parallel-scaling gate
// compares against workers1 on a machine with numCPU CPUs.
func scalingWorkers(numCPU int) int { return min(numCPU, 4) }

// calibSink keeps the calibration loop observable so it cannot be elided.
var calibSink uint64

// calibrate times a fixed SplitMix64 chain (single-threaded, cache-resident,
// allocation-free) and returns the fastest of several runs in nanoseconds —
// a pure CPU-speed probe. Stamped into BENCH_summary.json, it lets the gate
// scale the committed baseline by machine speed instead of comparing raw
// wall clock across machines.
func calibrate() float64 {
	best := 0.0
	for run := 0; run < 5; run++ {
		x := uint64(0x9E3779B97F4A7C15)
		start := time.Now()
		for i := 0; i < 50_000_000; i++ {
			x ^= x >> 30
			x *= 0xBF58476D1CE4E5B9
			x ^= x >> 27
			x *= 0x94D049BB133111EB
			x ^= x >> 31
		}
		elapsed := float64(time.Since(start).Nanoseconds())
		calibSink += x
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best
}
