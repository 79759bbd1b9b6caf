package loadgen

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestSweepMeasuresAffinityAdvantage runs a miniature sweep and pins the
// property the perf gate depends on: hash routing repeats circuits into the
// backend that already cached them, so its cluster hit rate beats
// round-robin's on the same workload.
func TestSweepMeasuresAffinityAdvantage(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Sweep(ctx, Options{
		Backends:   2,
		Qubits:     []int{3},
		RPS:        50,
		Phase:      600 * time.Millisecond,
		WorkingSet: 5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.CalibrationNs <= 0 || rep.NumCPU < 1 {
		t.Fatalf("report header malformed: %+v", rep)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("%d runs, want 2 (hash + rr)", len(rep.Runs))
	}
	for _, run := range rep.Runs {
		if run.Completed == 0 || run.Failed != 0 {
			t.Errorf("%s run completed=%d failed=%d of %d sent", run.Route, run.Completed, run.Failed, run.Sent)
		}
		if run.P50MS <= 0 || run.P99MS < run.P50MS {
			t.Errorf("%s percentiles inconsistent: p50=%.2f p99=%.2f", run.Route, run.P50MS, run.P99MS)
		}
		if run.CacheHitRate < 0 || run.CacheHitRate > 1 {
			t.Errorf("%s hit rate %.2f escapes [0,1]", run.Route, run.CacheHitRate)
		}
	}
	// The gate's core claim: affinity routing concentrates repeats.
	if rep.Aggregate.HashHitRate <= rep.Aggregate.RRHitRate {
		t.Errorf("hash hit rate %.2f does not beat rr %.2f",
			rep.Aggregate.HashHitRate, rep.Aggregate.RRHitRate)
	}
	if rep.Aggregate.HashP99MS <= 0 || rep.Aggregate.RRP99MS <= 0 {
		t.Errorf("aggregate p99s missing: %+v", rep.Aggregate)
	}
}

func TestStartLocalBootsAndReportsStats(t *testing.T) {
	lc, err := StartLocal(2, 1, 16, cluster.RouteHash)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	cs, err := lc.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Up != 2 || cs.Route != cluster.RouteHash {
		t.Errorf("cluster stats up=%d route=%q, want 2/hash", cs.Up, cs.Route)
	}
}
