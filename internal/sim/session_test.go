package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
)

// measurementCircuit interleaves unitaries with mid-circuit measurement and
// reset so the seeded RNG path is exercised.
func measurementCircuit(n int) *circuit.Circuit {
	c := circuit.New(n, "measured")
	for q := 0; q < n; q++ {
		c.H(q)
	}
	c.Measure(0)
	c.CX(0, 1)
	c.T(2)
	c.Reset(1)
	c.H(1)
	c.CX(n-1, n-2)
	c.Measure(n - 1)
	c.RZ(0.37, 2)
	return c
}

// resultsEqual compares everything deterministic about two results from
// fresh managers: final amplitudes bit-for-bit plus every simulation-derived
// Result field (timing and manager identity aside).
func resultsEqual(t *testing.T, name string, a, b *Result) {
	t.Helper()
	va := a.Manager.ToVector(a.Final, a.NumQubits)
	vb := b.Manager.ToVector(b.Final, b.NumQubits)
	if !reflect.DeepEqual(va, vb) {
		t.Fatalf("%s: final amplitudes differ", name)
	}
	if a.MaxDDSize != b.MaxDDSize || a.FinalDDSize != b.FinalDDSize {
		t.Errorf("%s: sizes differ: max %d/%d final %d/%d", name, a.MaxDDSize, b.MaxDDSize, a.FinalDDSize, b.FinalDDSize)
	}
	if a.GateCount != b.GateCount || a.Cleanups != b.Cleanups || a.StrategyName != b.StrategyName {
		t.Errorf("%s: run shape differs: gates %d/%d cleanups %d/%d strategy %q/%q",
			name, a.GateCount, b.GateCount, a.Cleanups, b.Cleanups, a.StrategyName, b.StrategyName)
	}
	if a.EstimatedFidelity != b.EstimatedFidelity || a.FidelityBound != b.FidelityBound {
		t.Errorf("%s: fidelity accounting differs: %v/%v bound %v/%v",
			name, a.EstimatedFidelity, b.EstimatedFidelity, a.FidelityBound, b.FidelityBound)
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Errorf("%s: rounds differ: %v vs %v", name, a.Rounds, b.Rounds)
	}
	if !reflect.DeepEqual(a.Measurements, b.Measurements) {
		t.Errorf("%s: measurements differ: %v vs %v", name, a.Measurements, b.Measurements)
	}
	if !reflect.DeepEqual(a.SizeHistory, b.SizeHistory) {
		t.Errorf("%s: size histories differ", name)
	}
}

func sessionWorkloads() []struct {
	name string
	c    *circuit.Circuit
	opts Options
} {
	return []struct {
		name string
		c    *circuit.Circuit
		opts Options
	}{
		{"qft10_exact", gen.QFT(10), Options{CollectSizeHistory: true}},
		{"qft10_memory", gen.QFT(10), Options{
			Strategy:           &core.MemoryDriven{Threshold: 24, RoundFidelity: 0.97},
			CollectSizeHistory: true,
		}},
		{"grover9", gen.Grover(9, 0b101010101, 3), Options{
			Strategy: &core.MemoryDriven{Threshold: 16, RoundFidelity: 0.98},
		}},
		{"measured6", measurementCircuit(6), Options{}},
	}
}

// freshStrategy deep-copies a strategy config so each run gets its own
// stateful instance.
func freshStrategy(s core.Strategy) core.Strategy {
	switch st := s.(type) {
	case nil:
		return nil
	case *core.MemoryDriven:
		cp := *st
		return &cp
	case *core.FidelityDriven:
		cp := *st
		return &cp
	default:
		return s
	}
}

func TestSessionFinishMatchesRun(t *testing.T) {
	for _, w := range sessionWorkloads() {
		for _, seed := range []int64{1, 7, 42} {
			opts := w.opts
			opts.MeasurementSeed = seed
			opts.Strategy = freshStrategy(w.opts.Strategy)
			ref, err := New().Run(w.c, opts)
			if err != nil {
				t.Fatalf("%s seed %d: run: %v", w.name, seed, err)
			}

			opts.Strategy = freshStrategy(w.opts.Strategy)
			ses, err := NewSession(w.c, opts)
			if err != nil {
				t.Fatalf("%s seed %d: session: %v", w.name, seed, err)
			}
			got, err := ses.Finish()
			if err != nil {
				t.Fatalf("%s seed %d: finish: %v", w.name, seed, err)
			}
			resultsEqual(t, w.name, ref, got)
		}
	}
}

func TestSessionStepByStepMatchesRun(t *testing.T) {
	for _, w := range sessionWorkloads() {
		opts := w.opts
		opts.MeasurementSeed = 7
		opts.Strategy = freshStrategy(w.opts.Strategy)
		ref, err := New().Run(w.c, opts)
		if err != nil {
			t.Fatalf("%s: run: %v", w.name, err)
		}

		opts.Strategy = freshStrategy(w.opts.Strategy)
		ses, err := NewSession(w.c, opts)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for {
			err := ses.Step()
			if errors.Is(err, ErrSessionDone) {
				break
			}
			if err != nil {
				t.Fatalf("%s: step %d: %v", w.name, steps, err)
			}
			steps++
			if ses.Pos() != steps {
				t.Fatalf("%s: Pos %d after %d steps", w.name, ses.Pos(), steps)
			}
		}
		if steps != w.c.Len() {
			t.Fatalf("%s: stepped %d of %d gates", w.name, steps, w.c.Len())
		}
		got, err := ses.Finish()
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, w.name, ref, got)

		// Finish is idempotent.
		again, err := ses.Finish()
		if err != nil || again != got {
			t.Fatalf("%s: second Finish: (%p, %v), want same result", w.name, again, err)
		}
	}
}

func TestSessionStepNAndSeekMatchRun(t *testing.T) {
	for _, w := range sessionWorkloads() {
		opts := w.opts
		opts.MeasurementSeed = 42
		opts.Strategy = freshStrategy(w.opts.Strategy)
		ref, err := New().Run(w.c, opts)
		if err != nil {
			t.Fatalf("%s: run: %v", w.name, err)
		}

		// StepN in uneven chunks.
		opts.Strategy = freshStrategy(w.opts.Strategy)
		ses, err := NewSession(w.c, opts)
		if err != nil {
			t.Fatal(err)
		}
		for ses.Remaining() > 0 {
			if _, err := ses.StepN(3); err != nil {
				t.Fatalf("%s: StepN: %v", w.name, err)
			}
		}
		if n, err := ses.StepN(5); n != 0 || !errors.Is(err, ErrSessionDone) {
			t.Fatalf("%s: StepN past end: (%d, %v), want (0, ErrSessionDone)", w.name, n, err)
		}
		got, err := ses.Finish()
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, w.name+"/stepN", ref, got)

		// Seek to the midpoint, then Finish.
		opts.Strategy = freshStrategy(w.opts.Strategy)
		ses, err = NewSession(w.c, opts)
		if err != nil {
			t.Fatal(err)
		}
		mid := w.c.Len() / 2
		if err := ses.Seek(mid); err != nil {
			t.Fatalf("%s: seek: %v", w.name, err)
		}
		if ses.Pos() != mid {
			t.Fatalf("%s: Pos %d after Seek(%d)", w.name, ses.Pos(), mid)
		}
		got, err = ses.Finish()
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, w.name+"/seek", ref, got)
	}
}

func TestSessionSeekValidation(t *testing.T) {
	ses, err := NewSession(gen.QFT(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Seek(5); err != nil {
		t.Fatal(err)
	}
	if err := ses.Seek(2); err == nil {
		t.Error("backward seek accepted")
	}
	if err := ses.Seek(10_000); err == nil {
		t.Error("seek past circuit end accepted")
	}
	// Validation errors must not kill the session.
	if _, err := ses.Finish(); err != nil {
		t.Fatalf("session dead after rejected seeks: %v", err)
	}
}

func TestSessionAbortReleasesPooledNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := randomCircuit(10, 150, rng)
	s := New()
	ses, err := s.NewSession(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.StepN(100); err != nil {
		t.Fatal(err)
	}
	midRun := s.M.Pool().Live
	if midRun == 0 {
		t.Fatal("no live nodes mid-run; test is vacuous")
	}
	ses.Abort()
	afterAbort := s.M.Pool().Live
	// The manager keeps a few internal nodes alive through any sweep; the
	// floor is whatever a full rootless Recycle leaves, and Abort must
	// reach exactly that floor.
	s.Recycle()
	floor := s.M.Pool().Live
	if afterAbort != floor {
		t.Errorf("Abort left %d pooled nodes live (mid-run %d, recycle floor %d)", afterAbort, midRun, floor)
	}
	if err := ses.Step(); !errors.Is(err, ErrSessionAborted) {
		t.Errorf("Step after Abort: %v, want ErrSessionAborted", err)
	}
	if _, err := ses.Finish(); !errors.Is(err, ErrSessionAborted) {
		t.Errorf("Finish after Abort: %v, want ErrSessionAborted", err)
	}

	// The manager is reusable after an abort.
	if _, err := s.Run(gen.GHZ(5), Options{}); err != nil {
		t.Fatalf("manager unusable after Abort: %v", err)
	}
}

func TestSessionAbortKeepsKeepAliveRoots(t *testing.T) {
	s := New()
	ref, err := s.Run(gen.GHZ(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := s.M.ToVector(ref.Final, 8)
	ses, err := s.NewSession(gen.QFT(8), Options{KeepAlive: []dd.VEdge{ref.Final}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.StepN(20); err != nil {
		t.Fatal(err)
	}
	ses.Abort()
	if got := s.M.ToVector(ref.Final, 8); !reflect.DeepEqual(want, got) {
		t.Error("KeepAlive state clobbered by Abort's sweep")
	}
}

// countingObserver records the event stream.
type countingObserver struct {
	gates, rounds, cleanups, reorders, finishes int
	channels                                    int
	lastChannel                                 core.ChannelEvent
	lastGate                                    core.GateEvent
	lastReorder                                 core.ReorderEvent
	finish                                      core.FinishEvent
}

func (o *countingObserver) OnGate(e core.GateEvent)       { o.gates++; o.lastGate = e }
func (o *countingObserver) OnApproximation(r core.Round)  { o.rounds++ }
func (o *countingObserver) OnCleanup(e core.CleanupEvent) { o.cleanups++ }
func (o *countingObserver) OnReorder(e core.ReorderEvent) { o.reorders++; o.lastReorder = e }
func (o *countingObserver) OnChannel(e core.ChannelEvent) { o.channels++; o.lastChannel = e }
func (o *countingObserver) OnFinish(e core.FinishEvent)   { o.finishes++; o.finish = e }

func TestObserverSeesEveryEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := randomCircuit(8, 120, rng)
	obs := &countingObserver{}
	s := New()
	res, err := s.Run(c, Options{
		Strategy:         &core.MemoryDriven{Threshold: 16, RoundFidelity: 0.98},
		cleanupHighWater: 2000,
		Observer:         obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.gates != c.Len() {
		t.Errorf("OnGate fired %d times for %d gates", obs.gates, c.Len())
	}
	if obs.rounds != len(res.Rounds) {
		t.Errorf("OnApproximation fired %d times for %d rounds", obs.rounds, len(res.Rounds))
	}
	if obs.rounds == 0 {
		t.Error("workload never approximated; event test is vacuous")
	}
	if obs.cleanups != res.Cleanups {
		t.Errorf("OnCleanup fired %d times for %d cleanups", obs.cleanups, res.Cleanups)
	}
	if obs.finishes != 1 {
		t.Errorf("OnFinish fired %d times", obs.finishes)
	}
	if obs.finish.GatesApplied != c.Len() || obs.finish.Err != nil || obs.finish.Aborted {
		t.Errorf("finish event wrong: %+v", obs.finish)
	}
	if obs.finish.EstimatedFidelity != res.EstimatedFidelity {
		t.Errorf("finish fidelity %v != result %v", obs.finish.EstimatedFidelity, res.EstimatedFidelity)
	}
	if obs.lastGate.Index != c.Len()-1 {
		t.Errorf("last gate event index %d", obs.lastGate.Index)
	}
}

func TestObserverOnFinishFiresOnAbortAndError(t *testing.T) {
	obs := &countingObserver{}
	ses, err := NewSession(gen.QFT(8), Options{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.StepN(10); err != nil {
		t.Fatal(err)
	}
	ses.Abort()
	ses.Abort() // idempotent
	if obs.finishes != 1 || !obs.finish.Aborted || obs.finish.GatesApplied != 10 {
		t.Errorf("abort finish event: count %d, %+v", obs.finishes, obs.finish)
	}

	obs = &countingObserver{}
	strat := &core.MemoryDriven{Threshold: 8, RoundFidelity: 0.9}
	ses, err = NewSession(gen.QFT(8), Options{Observer: obs, Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	strat.RoundFidelity = -1 // sabotage mid-run so AfterGate errors
	_, ferr := ses.Finish()
	if ferr == nil {
		t.Skip("sabotaged strategy did not error; layout changed")
	}
	if obs.finishes != 1 || obs.finish.Err == nil {
		t.Errorf("error finish event: count %d, %+v", obs.finishes, obs.finish)
	}
}

func TestSessionDeadlineUnifiedWithContext(t *testing.T) {
	// A deadline is a context carrying ErrDeadlineExceeded as its cause:
	// an expired one derived from a live context surfaces as
	// ErrDeadlineExceeded through the single between-gate check.
	ctx, cancel := context.WithDeadlineCause(t.Context(), time.Now().Add(-time.Second), ErrDeadlineExceeded)
	defer cancel()
	ses, err := NewSession(gen.QFT(8), Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ses.Finish()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("got %v, want ErrDeadlineExceeded", err)
	}
}
