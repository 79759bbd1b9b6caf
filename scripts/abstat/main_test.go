package main

import (
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v, %v; want 2, 3, 4", q1, med, q3)
	}
	if _, med, _ := quartiles([]float64{1, 2}); med != 1.5 {
		t.Fatalf("median of {1, 2} = %v, want 1.5", med)
	}
}

func TestSummarizeCountsWinsByDirection(t *testing.T) {
	run := func(tail, rate float64) report {
		return report{Correct: true, Attempted: 10, Metrics: map[string]struct{ Value float64 }{
			"tail_ms": {tail}, "jobs_per_s": {rate}, "extra": {1},
		}}
	}
	ref := []report{run(10, 5), run(10, 5), run(10, 5)}
	change := []report{run(8, 6), run(12, 4), run(9, 5)}
	var out strings.Builder
	better := map[string]string{"tail_ms": "lower", "jobs_per_s": "higher"}
	if err := summarize(&out, better, ref, change); err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			lines[f[0]] = l
		}
	}
	for name, want := range map[string]string{"tail_ms": "2 of 3", "jobs_per_s": "1 of 3"} {
		if !strings.HasSuffix(lines[name], want) {
			t.Errorf("%s row %q, want it to end in %q", name, lines[name], want)
		}
	}
	if !strings.HasSuffix(lines["extra"], "-") {
		t.Errorf("metric without a direction got a win count: %q", lines["extra"])
	}
}
