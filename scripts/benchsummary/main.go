// Command benchsummary turns the raw `go test -json` benchmark stream that
// `make bench-smoke` captures (BENCH_dd.json) into a parsed, stable-schema
// BENCH_summary.json, and doubles as the CI perf-regression gate:
//
//	benchsummary -in BENCH_dd.json -out BENCH_summary.json
//	benchsummary -check -baseline bench_baseline.json -summary BENCH_summary.json
//
// Summary schema (bench-summary/v1): benchmark name (CPU-count suffix
// stripped) → ns/op, allocs/op, B/op, and any custom metrics the benchmark
// reported (e.g. peak_nodes from BenchmarkSessionOrdering).
//
// In -check mode the tool fails (exit 1) when
//
//   - a baseline benchmark matching -match is missing from the summary, or
//   - its ns/op regressed by more than -threshold (relative, after scaling
//     the baseline by the machines' calibration ratio; -min-ns optionally
//     floors out benchmarks measured too briefly to trust), or
//   - its allocs/op or B/op regressed by more than -threshold (these are
//     machine-independent, so they gate unscaled), or
//   - the batch engine stopped scaling: BenchmarkBatchRun/workers4 must be
//     at least -min-scaling times faster than workers1 (skipped with a note
//     when the summary was measured on fewer than 4 CPUs), or
//   - the ordering win disappeared: BenchmarkSessionOrdering/scored must
//     keep its peak_nodes metric below BenchmarkSessionOrdering/identity, or
//   - the replace-vs-delete frontier regressed: BenchmarkFrontierPairs must
//     report frontier_dominated == frontier_points (the replace pass keeps
//     fidelity >= delete within the node budget at every swept budget), or
//   - with -cluster set, the cluster routing gate fails: hash-affinity
//     routing must beat round-robin on cluster cache hit rate, and the
//     hash-routed p99 latency in BENCH_cluster.json must stay within
//     -cluster-threshold of the committed bench_cluster_baseline.json after
//     calibration adjustment (see internal/loadgen and cmd/loadgen).
//
// The summary also records scaling_gate ("ran" or "skipped_num_cpu") so the
// artifact is explicit about whether the parallel-scaling gate could run on
// the producing machine.
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

	"repro/internal/loadgen"
)

// Schema is the summary format identifier.
const Schema = "bench-summary/v1"

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
	// summary. The parallel-scaling gate self-skips when the current
	// summary was measured on fewer than 4 CPUs — there is no speedup to
	// measure there.
	NumCPU int `json:"num_cpu"`
	// ScalingGate records whether this machine can run the parallel-scaling
	// gate at all: "ran" on 4+ CPU machines, "skipped_num_cpu" otherwise —
	// so a summary artifact is self-describing about which gates its green
	// status actually covers.
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
	match := flag.String("match", `Gate|Session|Channel|Lookup|ApproximationPrimitive|BatchRun/workers1$`, "regexp selecting the gated benchmarks")
	minScaling := flag.Float64("min-scaling", 2.5, "required BatchRun workers1/workers4 ns/op speedup; skipped below 4 CPUs (0 disables)")
	clusterPath := flag.String("cluster", "", "BENCH_cluster.json from cmd/loadgen to gate (check mode; empty skips the cluster gate)")
	clusterBaseline := flag.String("cluster-baseline", "bench_cluster_baseline.json", "committed cluster latency baseline (check mode)")
	clusterThreshold := flag.Float64("cluster-threshold", 0.25, "relative calibration-adjusted p99 regression that fails the cluster gate")
	flag.Parse()

	if *check {
		if err := runCheck(*baseline, *summaryPath, *threshold, *minNs, *match, *minScaling); err != nil {
			fmt.Fprintf(os.Stderr, "benchsummary: %v\n", err)
			os.Exit(1)
		}
		if *clusterPath != "" {
			if err := runClusterCheck(*clusterBaseline, *clusterPath, *clusterThreshold); err != nil {
				fmt.Fprintf(os.Stderr, "benchsummary: %v\n", err)
				os.Exit(1)
			}
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
	sum.CalibrationNs = loadgen.Calibrate()
	sum.NumCPU = runtime.NumCPU()
	if sum.NumCPU >= 4 {
		sum.ScalingGate = "ran"
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
	// enough for a relative regression gate.
	sum := &Summary{Schema: Schema, Benchmarks: map[string]Benchmark{}}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		for _, line := range strings.Split(perPkg[pkg].String(), "\n") {
			name, bench, ok := parseResultLine(line)
			if !ok {
				continue
			}
			if prev, seen := sum.Benchmarks[name]; !seen || bench.NsPerOp < prev.NsPerOp {
				sum.Benchmarks[name] = bench
			}
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
	// "#NN"-suffixed names are go test's disambiguation of duplicate
	// registrations (e.g. a workers=GOMAXPROCS sub-benchmark colliding
	// with an explicit workers=N one). Which name collides depends on the
	// machine's CPU count, so these must not enter a summary that is
	// compared across machines.
	if strings.Contains(line, "#") {
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

// loadClusterReport reads a bench-cluster/v1 document (BENCH_cluster.json
// from cmd/loadgen, or the committed baseline).
func loadClusterReport(path string) (*loadgen.Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r loadgen.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != loadgen.Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, loadgen.Schema)
	}
	return &r, nil
}

// runClusterCheck is the cluster routing gate: content-hash affinity must
// keep beating round-robin on cluster-wide cache hit rate (the point of the
// router), and hash-routed p99 latency must stay within the
// calibration-adjusted envelope of the committed baseline.
func runClusterCheck(baselinePath, reportPath string, threshold float64) error {
	base, err := loadClusterReport(baselinePath)
	if err != nil {
		return err
	}
	cur, err := loadClusterReport(reportPath)
	if err != nil {
		return err
	}

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
	a := cur.Aggregate
	if a.HashHitRate <= a.RRHitRate {
		failures = append(failures, fmt.Sprintf(
			"cluster: hash-affinity cache hit rate %.1f%% does not beat round-robin %.1f%%",
			100*a.HashHitRate, 100*a.RRHitRate))
	}
	if a.HashP99MS <= 0 {
		failures = append(failures, "cluster: hash p99 missing from report aggregate")
	} else if allowed := base.Aggregate.HashP99MS * speed * (1 + threshold); a.HashP99MS > allowed {
		failures = append(failures, fmt.Sprintf(
			"cluster: hash p99 regressed %.1fms -> %.1fms (speed-adjusted gate is %.1fms, +%.0f%%)",
			base.Aggregate.HashP99MS*speed, a.HashP99MS, allowed, 100*threshold))
	}
	for _, run := range cur.Runs {
		if run.Sent > 0 && run.Completed == 0 {
			failures = append(failures, fmt.Sprintf(
				"cluster: %s q=%d %s phase completed 0 of %d submissions",
				run.Route, run.Qubits, run.Strategy, run.Sent))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("cluster gate failed (machine speed ratio %.2f):\n  %s", speed, strings.Join(failures, "\n  "))
	}
	fmt.Printf("benchsummary: cluster gate OK (hash hit %.0f%% > rr %.0f%%, hash p99 %.1fms within %.1fms, speed ratio %.2f)\n",
		100*a.HashHitRate, 100*a.RRHitRate, a.HashP99MS, base.Aggregate.HashP99MS*speed*(1+threshold), speed)
	return nil
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
	// the gate.
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
		if b.NsPerOp < minNs {
			continue // too small to measure at one iteration
		}
		allowed := b.NsPerOp * speed * (1 + threshold)
		if c.NsPerOp > allowed {
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.0f -> %.0f (+%.0f%% speed-adjusted, gate is +%.0f%%)",
				name, b.NsPerOp*speed, c.NsPerOp, 100*(c.NsPerOp/(b.NsPerOp*speed)-1), 100*threshold))
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
	// workers1/workers4 ratio is a load-normalized speedup. It needs real
	// cores; on fewer than 4 CPUs the gate self-skips with a note.
	if minScaling > 0 {
		w1, ok1 := cur.Benchmarks["BenchmarkBatchRun/workers1"]
		w4, ok4 := cur.Benchmarks["BenchmarkBatchRun/workers4"]
		switch {
		case cur.NumCPU < 4:
			fmt.Printf("benchsummary: note: parallel-scaling gate skipped (summary measured on %d CPUs, need 4)\n", cur.NumCPU)
		case !ok1 || !ok4:
			failures = append(failures, "BenchmarkBatchRun/{workers1,workers4}: missing from summary (parallel scaling unverified)")
		case w1.NsPerOp < minScaling*w4.NsPerOp:
			failures = append(failures, fmt.Sprintf(
				"BenchmarkBatchRun: workers4 speedup %.2fx over workers1, gate requires >= %.2fx",
				w1.NsPerOp/w4.NsPerOp, minScaling))
		default:
			fmt.Printf("benchsummary: parallel scaling OK (workers4 %.2fx faster than workers1 on %d CPUs)\n",
				w1.NsPerOp/w4.NsPerOp, cur.NumCPU)
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
