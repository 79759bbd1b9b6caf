package benchtab

import (
	"context"
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/shor"
	"repro/internal/sim"
	"repro/internal/supremacy"
)

// Row is one line of Table I (either half).
type Row struct {
	Approach string // "memory-driven" or "fidelity-driven"
	Name     string // benchmark name, e.g. qsup_4x5_15_0 or shor_33_5
	Qubits   int

	// Exact (non-approximating) reference columns.
	ExactMaxDD   int
	ExactTime    time.Duration
	ExactTimeout bool

	// Proposed-approach columns.
	ApproxMaxDD  int
	Rounds       int
	RoundFid     float64 // f_round
	ApproxTime   time.Duration
	FinalFid     float64 // tracked final fidelity (product of rounds)
	FidBound     float64 // guaranteed product of round targets
	ApproxFailed string  // non-empty if the approximate run errored

	// Extra columns beyond the paper (available because both states fit in
	// one manager at reproduction scale): the measured true fidelity, -1
	// when the exact reference is unavailable.
	TrueFidelity float64
}

// SpeedUp returns exact time / approx time (0 when not comparable).
func (r Row) SpeedUp() float64 {
	if r.ExactTimeout || r.ApproxTime == 0 || r.ApproxFailed != "" {
		return 0
	}
	return float64(r.ExactTime) / float64(r.ApproxTime)
}

// SupremacyCase is one memory-driven benchmark: a circuit plus the
// threshold/growth hyper-parameters and the f_round sweep of Table I.
type SupremacyCase struct {
	Config    supremacy.Config
	Threshold int
	// Growth is the threshold multiplier after each round. The paper's text
	// doubles the threshold; the scaled-down presets use a gentler factor so
	// the round counts land in the paper's regime (tens of rounds) at
	// laptop-scale DD ceilings.
	Growth  float64
	Frounds []float64
}

// ShorCase is one fidelity-driven benchmark.
type ShorCase struct {
	N, A          uint64
	FinalFidelity float64
	RoundFidelity float64
}

// Suite is a full Table I configuration.
type Suite struct {
	Name       string
	Supremacy  []SupremacyCase
	Shor       []ShorCase
	Timeout    time.Duration // per-simulation timeout (paper: 3 h)
	SampleTrue bool          // measure true fidelity against the exact state
}

// benchmark is one Table I circuit: the exact reference plus one
// approximate configuration per row. Both halves of the table are lists of
// benchmarks run by runBenchmarks.
type benchmark struct {
	approach, name string
	qubits         int
	circuit        *circuit.Circuit
	rows           []config
}

// config is one approximate configuration of a benchmark (one table row).
type config struct {
	fround           float64
	registry, params string
}

// RunMemoryDriven produces the memory-driven half of Table I: one job per
// exact reference and per (circuit, f_round) configuration.
func (s Suite) RunMemoryDriven(ctx context.Context, opts RunOptions) ([]Row, error) {
	benches := make([]benchmark, len(s.Supremacy))
	for i, cs := range s.Supremacy {
		circ, err := cs.Config.Generate()
		if err != nil {
			return nil, err
		}
		b := benchmark{approach: "memory-driven", name: cs.Config.Name(), qubits: cs.Config.Qubits(), circuit: circ}
		for _, fround := range cs.Frounds {
			b.rows = append(b.rows, config{fround, "memory", mustJSON(core.MemoryDriven{
				Threshold: cs.Threshold, RoundFidelity: fround, Growth: cs.Growth,
			})})
		}
		benches[i] = b
	}
	return s.runBenchmarks(ctx, benches, opts)
}

// RunFidelityDriven produces the fidelity-driven half of Table I: one
// exact and one approximate job per Shor instance, approximating at the
// inverse-QFT block boundaries.
func (s Suite) RunFidelityDriven(ctx context.Context, opts RunOptions) ([]Row, error) {
	benches := make([]benchmark, len(s.Shor))
	for i, cs := range s.Shor {
		inst, err := shor.NewInstance(cs.N, cs.A)
		if err != nil {
			return nil, err
		}
		circ := inst.BuildCircuit()
		benches[i] = benchmark{approach: "fidelity-driven", name: inst.Name(), qubits: inst.Qubits, circuit: circ,
			rows: []config{{cs.RoundFidelity, "fidelity", mustJSON(core.FidelityDriven{
				FinalFidelity: cs.FinalFidelity, RoundFidelity: cs.RoundFidelity,
				Locations: inst.IQFTBoundaries(circ),
			})}}}
	}
	return s.runBenchmarks(ctx, benches, opts)
}

// runBenchmarks runs each benchmark's exact reference followed by its
// approximate configurations, in benchmark order, and assembles one row per
// configuration.
func (s Suite) runBenchmarks(ctx context.Context, benches []benchmark, opts RunOptions) ([]Row, error) {
	var cells []cell
	trueFid := make([][]float64, len(benches))
	for i, b := range benches {
		approx := make([]cell, len(b.rows))
		for j, cfg := range b.rows {
			approx[j] = cell{name: fmt.Sprintf("%s/fround=%g", b.name, cfg.fround), circuit: b.circuit,
				registry: cfg.registry, params: cfg.params, timeout: s.Timeout}
		}
		trueFid[i] = make([]float64, len(approx))
		cells = append(cells, cell{name: b.name + "/exact", circuit: b.circuit, timeout: s.Timeout,
			finalize: s.sampleTrue(ctx, b.circuit, approx, trueFid[i])})
		cells = append(cells, approx...)
	}
	jrs, err := run(ctx, cells, opts)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for i, b := range benches {
		for j, cfg := range b.rows {
			row := Row{Approach: b.approach, Name: b.name, Qubits: b.qubits, RoundFid: cfg.fround}
			fillExact(&row, jrs[0])
			fillApprox(&row, jrs[1+j], trueFid[i][j])
			rows = append(rows, row)
		}
		jrs = jrs[1+len(b.rows):]
	}
	return rows, nil
}

// sampleTrue returns the Finalize hook of an exact reference job when the
// suite samples true fidelities (nil otherwise). Inside the exact run's
// manager, it re-runs each approximate configuration in order and stores
// its fidelity against the exact final state in out (-1 when the exact run
// or the re-run fails). fillApprox copies a value into its row only when
// the row's own approximate job succeeded.
func (s Suite) sampleTrue(ctx context.Context, c *circuit.Circuit, approx []cell, out []float64) func(*batch.JobResult) {
	for j := range out {
		out[j] = -1
	}
	if !s.SampleTrue {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return func(jr *batch.JobResult) {
		if jr.Err != nil {
			return
		}
		exact := jr.Result
		simr := &sim.Simulator{M: exact.Manager}
		for j, a := range approx {
			// Each re-run gets the suite's per-simulation timeout, like
			// every other Table I simulation.
			runCtx, cancel := ctx, context.CancelFunc(func() {})
			if s.Timeout > 0 {
				runCtx, cancel = context.WithTimeoutCause(ctx, s.Timeout, sim.ErrDeadlineExceeded)
			}
			res, err := simr.Run(c, sim.Options{
				Strategy: a.strategy(),
				Context:  runCtx,
				// The exact final state must survive this run's node-pool
				// sweeps for the fidelity comparison below.
				KeepAlive: []dd.VEdge{exact.Final},
			})
			cancel()
			if err == nil {
				out[j] = simr.M.Fidelity(exact.Final, res.Final)
			}
		}
	}
}

func fillExact(row *Row, jr batch.JobResult) {
	if jr.Err != nil {
		row.ExactTimeout = true
		return
	}
	row.ExactMaxDD = jr.Result.MaxDDSize
	row.ExactTime = jr.Result.Runtime
}

func fillApprox(row *Row, jr batch.JobResult, trueFid float64) {
	if jr.Err != nil {
		row.ApproxFailed = jr.Err.Error()
		return
	}
	approx := jr.Result
	row.ApproxMaxDD = approx.MaxDDSize
	row.Rounds = len(approx.Rounds)
	row.ApproxTime = approx.Runtime
	row.FinalFid = approx.EstimatedFidelity
	row.FidBound = approx.FidelityBound
	row.TrueFidelity = trueFid
}
