package benchtab

import (
	"context"
	"fmt"
	"runtime"
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

// RunOptions configures how a suite or sweep executes. The zero value runs
// serially, matching the historical behavior of the option-less drivers
// (RunMemoryDriven, RunFidelityDriven, SweepThreshold, SweepRoundFidelity).
type RunOptions struct {
	// Parallel is the batch worker count; values ≤ 1 run serially (use
	// Workers to map a "0 = all CPUs" flag value). Rows are identical for
	// every worker count (timing columns aside) because each job runs on
	// a fresh manager with a seed derived from BaseSeed and its index.
	Parallel int
	// BaseSeed derives per-job measurement seeds.
	BaseSeed int64
	// Progress, when non-nil, receives (done, total) after each finished
	// simulation job (exact references and approximate runs; the optional
	// true-fidelity re-runs, which run inside their exact reference's job,
	// are not counted).
	Progress func(done, total int)
}

// Workers maps a user-facing parallelism flag to a RunOptions.Parallel
// value: n ≤ 0 selects one worker per CPU, anything else is taken verbatim.
// The table1 and experiments commands share this for their -parallel flags.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func (o RunOptions) workers() int {
	if o.Parallel <= 1 {
		return 1
	}
	return o.Parallel
}

func (o RunOptions) batchOptions() batch.Options {
	bo := batch.Options{BaseSeed: o.BaseSeed, Workers: o.workers()}
	if o.Progress != nil {
		p := o.Progress
		bo.Progress = func(done, total int, _ batch.JobResult) { p(done, total) }
	}
	return bo
}

// RunMemoryDriven produces the memory-driven half of Table I, serially.
func (s Suite) RunMemoryDriven() ([]Row, error) {
	return s.RunMemoryDrivenBatch(context.Background(), RunOptions{})
}

// RunMemoryDrivenBatch produces the memory-driven half on the batch engine:
// one job per exact reference and per (circuit, f_round) configuration.
func (s Suite) RunMemoryDrivenBatch(ctx context.Context, opts RunOptions) ([]Row, error) {
	var jobs []batch.Job
	exactIdx := make([]int, len(s.Supremacy))
	trueFid := make([][]float64, len(s.Supremacy))
	for i, cs := range s.Supremacy {
		circ, err := cs.Config.Generate()
		if err != nil {
			return nil, err
		}
		strategies := make([]func() core.Strategy, len(cs.Frounds))
		for j, fround := range cs.Frounds {
			strategies[j] = memoryStrategy(cs, fround)
		}
		exactIdx[i] = len(jobs)
		trueFid[i] = make([]float64, len(cs.Frounds))
		jobs = append(jobs, batch.Job{
			Name: cs.Config.Name() + "/exact", Circuit: circ, Timeout: s.Timeout,
			Finalize: s.sampleTrue(ctx, circ, strategies, trueFid[i]),
		})
		for j, fround := range cs.Frounds {
			jobs = append(jobs, batch.Job{
				Name:        fmt.Sprintf("%s/fround=%g", cs.Config.Name(), fround),
				Circuit:     circ,
				Timeout:     s.Timeout,
				NewStrategy: strategies[j],
			})
		}
	}

	bres, err := batch.Run(ctx, jobs, opts.batchOptions())
	if err != nil {
		return nil, err
	}

	rows := make([]Row, 0, len(jobs)-len(s.Supremacy))
	for i, cs := range s.Supremacy {
		exact := bres.Jobs[exactIdx[i]]
		for j, fround := range cs.Frounds {
			row := Row{
				Approach: "memory-driven",
				Name:     cs.Config.Name(),
				Qubits:   cs.Config.Qubits(),
				RoundFid: fround,
			}
			fillExact(&row, exact.Result, exact.Err)
			fillApprox(&row, bres.Jobs[exactIdx[i]+1+j], trueFid[i][j])
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunFidelityDriven produces the fidelity-driven half of Table I, serially.
func (s Suite) RunFidelityDriven() ([]Row, error) {
	return s.RunFidelityDrivenBatch(context.Background(), RunOptions{})
}

// RunFidelityDrivenBatch produces the fidelity-driven half on the batch
// engine: one exact and one approximate job per Shor instance.
func (s Suite) RunFidelityDrivenBatch(ctx context.Context, opts RunOptions) ([]Row, error) {
	var jobs []batch.Job
	insts := make([]*shor.Instance, len(s.Shor))
	trueFid := make([][]float64, len(s.Shor))
	for i, cs := range s.Shor {
		inst, err := shor.NewInstance(cs.N, cs.A)
		if err != nil {
			return nil, err
		}
		insts[i] = inst
		circ := inst.BuildCircuit()
		strategy := fidelityStrategy(cs, inst.IQFTBoundaries(circ))
		trueFid[i] = make([]float64, 1)
		jobs = append(jobs,
			batch.Job{
				Name: inst.Name() + "/exact", Circuit: circ, Timeout: s.Timeout,
				Finalize: s.sampleTrue(ctx, circ, []func() core.Strategy{strategy}, trueFid[i]),
			},
			batch.Job{
				Name:        fmt.Sprintf("%s/fround=%g", inst.Name(), cs.RoundFidelity),
				Circuit:     circ,
				Timeout:     s.Timeout,
				NewStrategy: strategy,
			},
		)
	}

	bres, err := batch.Run(ctx, jobs, opts.batchOptions())
	if err != nil {
		return nil, err
	}

	rows := make([]Row, 0, len(s.Shor))
	for i, cs := range s.Shor {
		exact := bres.Jobs[2*i]
		row := Row{
			Approach: "fidelity-driven",
			Name:     insts[i].Name(),
			Qubits:   insts[i].Qubits,
			RoundFid: cs.RoundFidelity,
		}
		fillExact(&row, exact.Result, exact.Err)
		fillApprox(&row, bres.Jobs[2*i+1], trueFid[i][0])
		rows = append(rows, row)
	}
	return rows, nil
}

func memoryStrategy(cs SupremacyCase, fround float64) func() core.Strategy {
	return func() core.Strategy {
		return &core.MemoryDriven{
			Threshold:     cs.Threshold,
			RoundFidelity: fround,
			Growth:        cs.Growth,
		}
	}
}

func fidelityStrategy(cs ShorCase, locations []int) func() core.Strategy {
	return func() core.Strategy {
		strat := core.NewFidelityDriven(cs.FinalFidelity, cs.RoundFidelity)
		strat.Locations = locations
		return strat
	}
}

// sampleTrue returns the Finalize hook of an exact reference job when the
// suite samples true fidelities (nil otherwise). Inside the exact run's
// manager, it re-runs each approximate configuration in order and stores
// its fidelity against the exact final state in out (-1 when the exact run
// or the re-run fails). fillApprox copies a value into its row only when
// the row's own approximate job succeeded.
func (s Suite) sampleTrue(ctx context.Context, c *circuit.Circuit, strategies []func() core.Strategy, out []float64) func(*batch.JobResult) {
	for j := range out {
		out[j] = -1
	}
	if !s.SampleTrue {
		return nil
	}
	return func(jr *batch.JobResult) {
		if jr.Err != nil {
			return
		}
		exact := jr.Result
		simr := &sim.Simulator{M: exact.Manager}
		for j, newStrategy := range strategies {
			approx, err := simr.Run(c, sim.Options{
				Strategy: newStrategy(),
				Deadline: s.deadline(),
				Context:  ctx,
				// The exact final state must survive this run's node-pool
				// sweeps for the fidelity comparison below.
				KeepAlive: []dd.VEdge{exact.Final},
			})
			if err == nil {
				out[j] = simr.M.Fidelity(exact.Final, approx.Final)
			}
		}
	}
}

func (s Suite) deadline() time.Time {
	if s.Timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.Timeout)
}

func fillExact(row *Row, exact *sim.Result, err error) {
	if err != nil {
		row.ExactTimeout = true
		return
	}
	row.ExactMaxDD = exact.MaxDDSize
	row.ExactTime = exact.Runtime
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

// Validate sanity-checks a suite configuration.
func (s Suite) Validate() error {
	for _, cs := range s.Supremacy {
		if cs.Threshold <= 0 {
			return fmt.Errorf("benchtab: %s: threshold %d", cs.Config.Name(), cs.Threshold)
		}
		if len(cs.Frounds) == 0 {
			return fmt.Errorf("benchtab: %s: no f_round values", cs.Config.Name())
		}
	}
	for _, cs := range s.Shor {
		if cs.FinalFidelity <= 0 || cs.FinalFidelity >= 1 {
			return fmt.Errorf("benchtab: shor_%d_%d: final fidelity %v", cs.N, cs.A, cs.FinalFidelity)
		}
	}
	return nil
}
