package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testMatch = `Gate|Session|BatchRun/workers1$|RouterRoundTrip`

// passingSummary is a summary that clears every gate against itself: one
// ns/op-gated benchmark, one p99-gated one, the BatchRun pair the scaling
// gate reads at K=2, and the ordering and frontier benchmarks whose
// absence fails the gate.
func passingSummary() *Summary {
	return &Summary{
		Schema:        Schema,
		CalibrationNs: 100,
		NumCPU:        2,
		Benchmarks: map[string]Benchmark{
			"BenchmarkGateCircuitFresh":         {NsPerOp: 1e6, AllocsPerOp: 100, BytesPerOp: 1e5},
			"BenchmarkRouterRoundTrip/hit":      {NsPerOp: 2e5, AllocsPerOp: 300, BytesPerOp: 3e4, Metrics: map[string]float64{p99Metric: 1e6}},
			"BenchmarkBatchRun/workers1":        {NsPerOp: 1e9},
			"BenchmarkBatchRun/workers2":        {NsPerOp: 0.6e9},
			"BenchmarkSessionOrdering/identity": {NsPerOp: 1e6, Metrics: map[string]float64{"peak_nodes": 765}},
			"BenchmarkSessionOrdering/scored":   {NsPerOp: 2e5, Metrics: map[string]float64{"peak_nodes": 24}},
			"BenchmarkFrontierPairs":            {NsPerOp: 2e6, Metrics: map[string]float64{"frontier_points": 4, "frontier_dominated": 4}},
		},
	}
}

func writeSummary(t *testing.T, dir, name string, s *Summary) string {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCheck(t *testing.T) {
	setNs := func(name string, ns float64) func(*Summary) {
		return func(s *Summary) {
			b := s.Benchmarks[name]
			b.NsPerOp = ns
			s.Benchmarks[name] = b
		}
	}
	setP99 := func(p99 float64) func(*Summary) {
		return func(s *Summary) { s.Benchmarks["BenchmarkRouterRoundTrip/hit"].Metrics[p99Metric] = p99 }
	}
	setCPUs := func(n int) func(*Summary) { return func(s *Summary) { s.NumCPU = n } }
	setCalibration := func(ns float64) func(*Summary) { return func(s *Summary) { s.CalibrationNs = ns } }
	scaleTimes := func(f float64) func(*Summary) {
		return func(s *Summary) {
			for name, b := range s.Benchmarks {
				b.NsPerOp *= f
				if p, ok := b.Metrics[p99Metric]; ok {
					b.Metrics[p99Metric] = p * f
				}
				s.Benchmarks[name] = b
			}
		}
	}
	cases := []struct {
		name string
		cur  []func(*Summary) // edits to the current summary; the baseline is passingSummary
		fail string           // substring of the error, "" for a pass
	}{
		{name: "identical", cur: nil},
		{name: "p99 within bound", cur: []func(*Summary){setP99(1.2e6)}},
		{name: "p99 over bound", cur: []func(*Summary){setP99(1.3e6)}, fail: "BenchmarkRouterRoundTrip/hit: p99-ns regressed"},
		{name: "p99 missing", cur: []func(*Summary){setP99(0)}, fail: "BenchmarkRouterRoundTrip/hit: p99-ns missing"},
		// hit is held to p99-ns alone: its ns/op is reported, not gated.
		{name: "hit ns/op not gated", cur: []func(*Summary){setNs("BenchmarkRouterRoundTrip/hit", 1e6)}},
		{name: "ns/op over bound", cur: []func(*Summary){setNs("BenchmarkGateCircuitFresh", 1.3e6)}, fail: "BenchmarkGateCircuitFresh: ns/op regressed"},
		{name: "gated entry missing", cur: []func(*Summary){func(s *Summary) { delete(s.Benchmarks, "BenchmarkGateCircuitFresh") }},
			fail: "BenchmarkGateCircuitFresh: present in baseline, missing from summary"},
		// K = 2 needs 2.5·2/4 = 1.25x.
		{name: "scaling passes at K=2", cur: []func(*Summary){setNs("BenchmarkBatchRun/workers2", 0.79e9)}},
		{name: "scaling fails at K=2", cur: []func(*Summary){setNs("BenchmarkBatchRun/workers2", 0.81e9)}, fail: "workers2 speedup 1.23x over workers1, gate requires >= 1.25x"},
		{name: "scaling skips at 1 CPU", cur: []func(*Summary){setCPUs(1), setNs("BenchmarkBatchRun/workers2", 1e9)}},
		{name: "scaling needs workersK", cur: []func(*Summary){setCPUs(4)}, fail: "BenchmarkBatchRun/{workers1,workers4}: missing"},
		// A machine 10x slower than the baseline's is credited 4x at most:
		// the bound is 4 · 1.25 = 5x the baseline.
		{name: "clamp at 4 passes", cur: []func(*Summary){setCalibration(1000), setNs("BenchmarkGateCircuitFresh", 4.9e6)}},
		{name: "clamp at 4 fails", cur: []func(*Summary){setCalibration(1000), setNs("BenchmarkGateCircuitFresh", 6e6)}, fail: "machine speed ratio 4.00"},
		// A machine 10x faster is held to 0.25 · 1.25 = 0.3125x, not 0.125x.
		{name: "clamp at 0.25 passes", cur: []func(*Summary){setCalibration(10), scaleTimes(0.3)}},
		{name: "clamp at 0.25 fails", cur: []func(*Summary){setCalibration(10), scaleTimes(0.3), setNs("BenchmarkGateCircuitFresh", 0.35e6)}, fail: "machine speed ratio 0.25"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cur := passingSummary()
			for _, edit := range tc.cur {
				edit(cur)
			}
			err := runCheck(writeSummary(t, dir, "base.json", passingSummary()), writeSummary(t, dir, "cur.json", cur),
				0.25, 1000, testMatch, 2.5)
			switch {
			case tc.fail == "" && err != nil:
				t.Fatalf("want pass, got %v", err)
			case tc.fail != "" && err == nil:
				t.Fatalf("want failure %q, got pass", tc.fail)
			case tc.fail != "" && !strings.Contains(err.Error(), tc.fail):
				t.Fatalf("want failure %q, got %v", tc.fail, err)
			}
		})
	}
}

// TestParseStreamP99IsItsOwnMinimum pins how repeated runs fold: the
// summary keeps the fastest run by ns/op, but its p99-ns is the lowest
// over all runs, even when a slower run held it.
func TestParseStreamP99IsItsOwnMinimum(t *testing.T) {
	var stream strings.Builder
	for _, line := range []string{
		"BenchmarkRouterRoundTrip/hit-2  5000  230000 ns/op  900000 p99-ns  29000 B/op  297 allocs/op\n",
		"BenchmarkRouterRoundTrip/hit-2  5000  210000 ns/op  1000000 p99-ns  29000 B/op  297 allocs/op\n",
		"BenchmarkRouterRoundTrip/hit-2  5000  220000 ns/op  950000 p99-ns  29000 B/op  297 allocs/op\n",
	} {
		raw, _ := json.Marshal(testEvent{Action: "output", Package: "repro/internal/cluster", Output: line})
		stream.Write(append(raw, '\n'))
	}
	path := filepath.Join(t.TempDir(), "stream.json")
	if err := os.WriteFile(path, []byte(stream.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := parseStream(path)
	if err != nil {
		t.Fatal(err)
	}
	got := sum.Benchmarks["BenchmarkRouterRoundTrip/hit"]
	if got.NsPerOp != 210000 || got.Metrics[p99Metric] != 900000 {
		t.Errorf("folded to ns/op %.0f p99-ns %.0f, want 210000 and 900000", got.NsPerOp, got.Metrics[p99Metric])
	}
}
