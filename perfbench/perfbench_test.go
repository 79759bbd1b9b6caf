package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/sim"
)

// paperStream renders a job list byte for byte: names and every gate.
func paperStream(t *testing.T, seed int64) []byte {
	t.Helper()
	jobs, err := paperJobs(seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, j := range jobs {
		fmt.Fprintf(&b, "%s %d %v\n", j.Name, j.Circuit.NumQubits, j.Circuit.Blocks())
		for _, g := range j.Circuit.Gates() {
			fmt.Fprintf(&b, "%s %v\n", g.String(), g.Perm)
		}
	}
	return b.Bytes()
}

func mixStream(t *testing.T, seed int64) []byte {
	t.Helper()
	jobs, err := mixJobs(seed, 0, 2*len(mixCycle))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, j := range jobs {
		out, err := json.Marshal(j.Req)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(out)
	}
	return b.Bytes()
}

func hotStream(t *testing.T, seed int64) []byte {
	t.Helper()
	reqs, err := hotJobs(seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJobStreamsAreSeeded(t *testing.T) {
	for name, stream := range map[string]func(*testing.T, int64) []byte{
		"paper": paperStream, "serve-mix": mixStream, "serve-hot": hotStream,
	} {
		a, b, c := stream(t, 7), stream(t, 7), stream(t, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

// A serve-mix stream can be cut anywhere: submission i depends only on
// (seed, i).
func TestMixStreamIsPrefixStable(t *testing.T) {
	whole, err := mixJobs(3, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := mixJobs(3, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range tail {
		a, _ := json.Marshal(j.Req)
		b, _ := json.Marshal(whole[10+i].Req)
		if !bytes.Equal(a, b) {
			t.Fatalf("submission %d differs when generated from 10", 10+i)
		}
	}
}

func TestEveryPaperJobHasAReference(t *testing.T) {
	var ref map[string]refCounts
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	pool, err := paperPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != len(ref) {
		t.Errorf("pool has %d jobs, reference.json %d", len(pool), len(ref))
	}
	for _, j := range pool {
		if _, ok := ref[j.Name]; !ok {
			t.Errorf("no reference for %s", j.Name)
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		jobs, err := paperJobs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if _, ok := ref[j.Name]; !ok {
				t.Fatalf("seed %d draws %s, which has no reference", seed, j.Name)
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{101, 0.9, 91, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
	}
	for _, c := range cases {
		got, ok := percentile(xs(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("p%g of 1..%d = %v, %v; want %v, %v", 100*c.q, c.n, got, ok, c.want, c.ok)
		}
	}
	if n := samplesFor(0.9); n != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", n)
	}
	if n := samplesFor(0.99); n != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", n)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if v, ok := hdQuantile(xs(99), 0.9); ok || math.Abs(v-90) > 0.5 {
		t.Errorf("Harrell-Davis p90 of 1..99 = %v, %v; want about 90, false", v, ok)
	}
	if v, ok := hdQuantile(xs(100), 0.5); !ok || math.Abs(v-50.5) > 1e-6 {
		t.Errorf("Harrell-Davis median of 1..100 = %v, %v; want 50.5, true", v, ok)
	}
}

// Where the median falls in a gap between two clusters, moving one sample
// across the gap moves a single order statistic by the whole gap and the
// Harrell-Davis estimate by a fraction of it.
func TestHarrellDavisIsSmoothAcrossGaps(t *testing.T) {
	lo := make([]float64, 0, 101)
	for i := 0; i < 101; i++ {
		if i < 51 {
			lo = append(lo, 10)
		} else {
			lo = append(lo, 100)
		}
	}
	hi := append([]float64(nil), lo...)
	hi[50] = 100 // the middle sample crosses the gap
	order := median(hi) - median(lo)
	a, _ := hdQuantile(lo, 0.5)
	b, _ := hdQuantile(hi, 0.5)
	if order != 90 || b-a > order/4 {
		t.Errorf("median moved %v, Harrell-Davis %v", order, b-a)
	}
}

// A run with too few samples for its tail percentile is not correct.
func TestShortWindowIsNotCorrect(t *testing.T) {
	w := newWindow(1, 1)
	w.begin()
	for i := 0; i < 50; i++ {
		w.ok(time.Millisecond, 1, 1)
	}
	w.mark()
	w.finish()
	if endToEndReport(w, 1).Correct {
		t.Error("50 jobs reported a p90")
	}
}

func TestCanaryCountsAsFailure(t *testing.T) {
	jobs := canaryJobs()
	if jobs[0].Circuit.NumQubits != canaryQubits || canaryQubits != 14 {
		t.Fatalf("the canary runs Grover at %d qubits, want 14", jobs[0].Circuit.NumQubits)
	}
	res := &batch.Result{Jobs: []batch.JobResult{
		{Name: jobs[0].Name, Err: fmt.Errorf("after gate 186: %w", sim.ErrDeadlineExceeded), Elapsed: canaryDeadline},
		{Name: jobs[1].Name, Result: &sim.Result{MaxDDSize: 36}, Elapsed: time.Second},
	}}
	lines, failed := canaryReport(res)
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "canary: 1 of 2 jobs failed") {
		t.Errorf("summary line %q", last)
	}
	// A failed paper job counts against the window.
	w := newWindow(1, 1)
	(&paperBench{ref: map[string]refCounts{}}).check(w, jobs[0], res.Jobs[0])
	if w.failed != 1 || w.attempted != 1 {
		t.Errorf("check counted %d failed of %d", w.failed, w.attempted)
	}
}

// Every metric BENCHMARK.json names is emitted with its unit, and nothing
// else.
func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w := newWindow(1, 1)
	w.begin()
	for i := 0; i < 200; i++ {
		w.ok(time.Millisecond, 1, 1)
	}
	w.mark()
	w.finish()
	compare := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", kind, len(got), len(want))
		}
		for _, m := range want {
			g, ok := got[m.Name]
			if !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s emitted as %+v, want unit %s", kind, m.Name, g, m.Unit)
			}
		}
	}
	compare("end_to_end", endToEndReport(w, 1).Metrics, spec.EndToEnd)
	compare("per_layer", layerReport(ledger(newTracer(), w)).Metrics, spec.PerLayer)
}

// Each workload runs a short window with every output checked.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		b, err := workloads[name].setup(ctx, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, err := b.window(ctx, 0, 1, newTracer())
		b.close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.failed != 0 || len(w.latMS) == 0 {
			t.Errorf("%s: %d of %d jobs failed: %v", name, w.failed, w.attempted, w.problems)
		}
	}
}
