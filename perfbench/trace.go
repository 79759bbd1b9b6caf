package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/sim"
)

// span is one timed interval at a layer boundary. Spans of one job or request
// share Req; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory for the traced run. Every method
// is a no-op on a nil *tracer, which is what the untraced run passes around,
// so untraced code paths carry no wrappers at all.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	sums  map[string]float64
	maxes map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sums: map[string]float64{}, maxes: map[string]float64{}}
}

// record appends a finished span and returns its index.
func (t *tracer) record(name string, req int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return len(t.spans) - 1
}

// open appends a span whose end is filled in by finish.
func (t *tracer) open(name string, req int64, parent int, start time.Time) int {
	return t.record(name, req, parent, start, start)
}

func (t *tracer) finish(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// add accumulates a counter.
func (t *tracer) add(key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[key] += v
	t.mu.Unlock()
}

// max keeps the largest value seen for key.
func (t *tracer) max(key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.maxes[key] {
		t.maxes[key] = v
	}
	t.mu.Unlock()
}

func (t *tracer) sum(key string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums[key]
}

func (t *tracer) maxOf(key string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxes[key]
}

// durations returns the lengths of all spans named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// totalMS sums the lengths of all spans named name, in milliseconds.
func (t *tracer) totalMS(name string) float64 {
	total := 0.0
	for _, d := range t.durations(name) {
		total += d
	}
	return total
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jobTrace follows one simulation through the sim, core, order and dd layers.
// It is the job's core.Observer and wraps its core.Strategy: between the
// strategy exit and the observer events it recovers where each phase of a
// gate step began and ended. All calls come from the simulating goroutine.
type jobTrace struct {
	t    *tracer
	req  int64
	root int
	// mark is where the next phase started: the previous phase's end, or
	// the Step call when the caller drives a sim.Session itself.
	mark time.Time
	// size is the state size before the next gate.
	size int
}

// newJobTrace returns the tracer of job req; nil when tracing is off.
func (t *tracer) newJobTrace(req int64) *jobTrace {
	if t == nil {
		return nil
	}
	return &jobTrace{t: t, req: req, root: -1}
}

// begin opens the job's root span; a basis state on n qubits has n nodes.
func (jt *jobTrace) begin(n int) {
	jt.mark = time.Now()
	jt.size = n
	jt.root = jt.t.open("job", jt.req, -1, jt.mark)
}

func (jt *jobTrace) phase(name string) time.Time {
	now := time.Now()
	jt.t.record(name, jt.req, jt.root, jt.mark, now)
	jt.mark = now
	return now
}

// OnGate closes the gate's span: gate-DD build, MulVec, normalization and
// the size count.
func (jt *jobTrace) OnGate(e core.GateEvent) {
	start := jt.mark
	end := jt.phase("sim.gate")
	jt.t.add("sim.gates", 1)
	jt.t.add("sim.gate_ns", float64(end.Sub(start)))
	jt.t.add("dd.size_before", float64(jt.size))
	jt.size = e.Size
}

func (jt *jobTrace) OnApproximation(core.Round) {}

func (jt *jobTrace) OnCleanup(core.CleanupEvent) {
	jt.phase("dd.cleanup")
	jt.t.add("dd.cleanups", 1)
}

// OnReorder closes a sifting pass, which runs between the strategy exit and
// this event.
func (jt *jobTrace) OnReorder(e core.ReorderEvent) {
	jt.phase("order.sift")
	jt.t.add("order.passes", 1)
	jt.t.add("order.swaps", float64(e.Swaps))
	jt.t.add("order.before", float64(e.SizeBefore))
	jt.t.add("order.cut", float64(e.SizeBefore-e.SizeAfter))
	jt.size = e.SizeAfter
}

func (jt *jobTrace) OnChannel(core.ChannelEvent) {}

func (jt *jobTrace) OnFinish(core.FinishEvent) { jt.phase("sim.finish") }

// done closes the root span and records the run's dd and cnum counters.
func (jt *jobTrace) done(res *sim.Result) {
	if jt == nil {
		return
	}
	jt.t.finish(jt.root, time.Now())
	jt.t.add("jobs", 1)
	if res == nil {
		return
	}
	s := res.DDStats
	jt.t.add("dd.nodes_created", float64(s.VNodesCreated+s.MNodesCreated))
	jt.t.add("dd.recycled", float64(s.VNodesRecycled+s.MNodesRecycled))
	jt.t.add("dd.mul_hits", float64(s.Mul.Hits))
	jt.t.add("dd.mul_lookups", float64(s.Mul.Hits+s.Mul.Misses))
	jt.t.add("dd.mul_evictions", float64(s.Mul.Evictions))
	jt.t.add("dd.add_hits", float64(s.Add.Hits))
	jt.t.add("dd.add_lookups", float64(s.Add.Hits+s.Add.Misses))
	jt.t.add("cnum.lookups", float64(res.WeightTable.Lookups))
	jt.t.add("cnum.hits", float64(res.WeightTable.Hits))
	jt.t.max("cnum.peak", float64(res.WeightTable.Peak))
}

// strategy wraps inner (nil meaning exact) so approximation rounds are timed.
// A wrapped core.Reorderer stays one, or the session would lose its order.
func (jt *jobTrace) strategy(inner core.Strategy) core.Strategy {
	if inner == nil {
		inner = core.Exact{}
	}
	ts := &tracedStrategy{Strategy: inner, jt: jt}
	if r, ok := inner.(core.Reorderer); ok {
		return tracedReorderer{ts, r}
	}
	return ts
}

type tracedStrategy struct {
	core.Strategy
	jt *jobTrace
}

func (s *tracedStrategy) Init(totalGates int, blocks []int) error {
	s.jt.mark = time.Now()
	return s.Strategy.Init(totalGates, blocks)
}

// AfterGate times the call; calls that returned a round are the
// approximation's cost.
func (s *tracedStrategy) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *core.Round, error) {
	start := time.Now()
	out, round, err := s.Strategy.AfterGate(m, gateIdx, size, state)
	jt := s.jt
	if round == nil {
		// A check that decided not to approximate: counted, not spanned,
		// so it is charged to neither the gate nor the next phase.
		jt.mark = time.Now()
		jt.t.add("core.check_ns", float64(jt.mark.Sub(start)))
		return out, round, err
	}
	jt.phase("core.approx")
	r := round.Report
	jt.t.add("core.rounds", 1)
	jt.t.add("core.nodes_removed", float64(r.RemovedNodes+r.ReplacedNodes))
	jt.t.add("core.before", float64(r.SizeBefore))
	jt.t.add("core.cut", float64(r.SizeBefore-r.SizeAfter))
	jt.size = r.SizeAfter
	return out, round, err
}

type tracedReorderer struct {
	*tracedStrategy
	r core.Reorderer
}

func (s tracedReorderer) ReorderPolicy() core.ReorderPolicy { return s.r.ReorderPolicy() }

// batchTrace is the batch.Observer of the paper workload: it records each
// job's span on its worker and the workers' busy time.
type batchTrace struct {
	t *tracer

	mu    sync.Mutex
	busy  []time.Duration
	start []time.Time
}

func (b *batchTrace) OnJobStart(worker, index int, name string) {
	b.mu.Lock()
	for len(b.start) <= worker {
		b.start = append(b.start, time.Time{})
		b.busy = append(b.busy, 0)
	}
	b.start[worker] = time.Now()
	b.mu.Unlock()
}

func (b *batchTrace) OnJobDone(worker int, r batch.JobResult) {
	end := time.Now()
	b.mu.Lock()
	start := b.start[worker]
	b.busy[worker] += end.Sub(start)
	b.mu.Unlock()
	b.t.record(fmt.Sprintf("batch.worker%d", worker), int64(r.Index), -1, start, end)
}

func (b *batchTrace) OnWorkerDone(int, batch.WorkerStats) {}

// utilization returns busy ÷ (workers × wall) and max ÷ mean worker busy.
func (b *batchTrace) utilization(workers int, wall time.Duration) (util, imbalance float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total, most time.Duration
	for _, d := range b.busy {
		total += d
		if d > most {
			most = d
		}
	}
	if total == 0 || wall <= 0 {
		return 0, 0
	}
	util = float64(total) / (float64(workers) * float64(wall))
	imbalance = float64(most) / (float64(total) / float64(workers))
	return util, imbalance
}
