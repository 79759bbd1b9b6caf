package benchtab

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/gen"
)

// TestRunRejectsInvalidConfigBeforeRunning: one malformed strategy config
// fails the whole grid before any job starts, instead of panicking inside a
// batch worker halfway through: params the factory cannot decode, and
// values only the strategy's Init rejects.
func TestRunRejectsInvalidConfigBeforeRunning(t *testing.T) {
	c := gen.QFT(4)
	started := 0
	count := func(*batch.JobResult) { started++ }
	for _, bad := range []struct{ registry, params string }{
		{"memory", `{"threshold":"eight"}`},
		{"memory", `{"threshold":-8,"round_fidelity":0.9}`},
		{"replace", `{"node_budget":16,"kinds":["delete"]}`},
		{"reorder", `{"order":"sideways"}`},
	} {
		cells := []cell{
			{name: "ok", circuit: c, registry: "memory", params: `{"threshold":8,"round_fidelity":0.9}`, finalize: count},
			{name: "bad", circuit: c, registry: bad.registry, params: bad.params, finalize: count},
			{name: "unknown", circuit: c, registry: "no-such-strategy", finalize: count},
		}
		_, err := run(context.Background(), cells, RunOptions{})
		if err == nil || !strings.Contains(err.Error(), "bad") {
			t.Fatalf("%s %s: run = %v, want the bad cell's config error", bad.registry, bad.params, err)
		}
	}
	if started != 0 {
		t.Errorf("%d jobs ran before the config error", started)
	}
}

// TestRunAllFailsOnJobError: run reports per-job failures in the results,
// runAll turns the first one into the grid's error; an error set in a
// cell's finalize hook counts as a job failure.
func TestRunAllFailsOnJobError(t *testing.T) {
	c := gen.QFT(4)
	cells := []cell{
		{name: "fine", circuit: c},
		{name: "nil-circuit"},
	}
	jrs, err := run(context.Background(), cells, RunOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if jrs[0].Err != nil || jrs[1].Err == nil {
		t.Fatalf("run errors = %v, %v; want nil, non-nil", jrs[0].Err, jrs[1].Err)
	}
	if _, err := runAll(context.Background(), cells, RunOptions{}); err == nil || !strings.Contains(err.Error(), "nil-circuit") {
		t.Errorf("runAll = %v, want the nil-circuit job's error", err)
	}

	hooked := []cell{{name: "hooked", circuit: c, finalize: func(r *batch.JobResult) {
		r.Err = errors.New("finalize failed")
	}}}
	if _, err := runAll(context.Background(), hooked, RunOptions{}); err == nil || !strings.Contains(err.Error(), "hooked: finalize failed") {
		t.Errorf("runAll = %v, want the finalize hook's error", err)
	}
}
