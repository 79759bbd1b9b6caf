package benchtab

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
)

// RunOptions configures how a suite or sweep executes. The zero value runs
// on one worker.
type RunOptions struct {
	// Parallel is the batch worker count; values ≤ 1 run on one worker.
	// Rows are identical for every worker count (timing columns aside)
	// because each job runs on a fresh manager with a seed derived from
	// BaseSeed and its index.
	Parallel int
	// BaseSeed derives per-job measurement seeds.
	BaseSeed int64
}

// cell is one simulation of a grid: a circuit under a registry strategy.
// Every table and sweep of this package is a list of cells run by run.
type cell struct {
	name    string
	circuit *circuit.Circuit
	// registry and params are exactly what core.NewStrategyByName
	// receives; the empty name runs exact.
	registry, params string
	timeout          time.Duration
	// finalize, when non-nil, is the job's batch Finalize hook: the only
	// place the final state is readable. Setting r.Err there fails the
	// cell.
	finalize func(r *batch.JobResult)
}

// config renders the cell's strategy configuration as
// "<registry name> <JSON params>", the self-describing Params column.
func (c cell) config() string {
	if c.params == "" {
		return c.registry
	}
	return c.registry + " " + c.params
}

// strategy builds a fresh strategy for one run. run validates every config
// before anything starts, so the error is unreachable there.
func (c cell) strategy() core.Strategy {
	s, err := core.NewStrategyByName(c.registry, json.RawMessage(c.params))
	if err != nil {
		panic(fmt.Sprintf("benchtab: %s: %v", c.name, err))
	}
	return s
}

// run executes one batch job per cell, results in cell order. It rejects an
// invalid strategy config (one its factory or Init refuses) before any job
// runs; per-job failures are left in the results.
func run(ctx context.Context, cells []cell, opts RunOptions) ([]batch.JobResult, error) {
	jobs := make([]batch.Job, len(cells))
	for i, c := range cells {
		s, err := core.NewStrategyByName(c.registry, json.RawMessage(c.params))
		if err == nil && c.circuit != nil { // a nil circuit fails as its own job
			err = s.Init(c.circuit.Len(), c.circuit.Blocks())
		}
		if err != nil {
			return nil, fmt.Errorf("benchtab: %s: %w", c.name, err)
		}
		jobs[i] = batch.Job{
			Name:        c.name,
			Circuit:     c.circuit,
			Timeout:     c.timeout,
			NewStrategy: c.strategy,
			Finalize:    c.finalize,
		}
	}
	res, err := batch.Run(ctx, jobs, batch.Options{BaseSeed: opts.BaseSeed, Workers: max(opts.Parallel, 1)})
	if err != nil {
		return nil, err
	}
	return res.Jobs, nil
}

// runAll is run that also fails on the first job error.
func runAll(ctx context.Context, cells []cell, opts RunOptions) ([]batch.JobResult, error) {
	jrs, err := run(ctx, cells, opts)
	if err != nil {
		return nil, err
	}
	for _, jr := range jrs {
		if jr.Err != nil {
			return nil, fmt.Errorf("benchtab: %s: %w", jr.Name, jr.Err)
		}
	}
	return jrs, nil
}

// mustJSON encodes strategy parameters for a cell.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
