package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/density"
	"repro/internal/order"
)

// Session errors.
var (
	// ErrSessionDone is returned by Step/StepN/Seek once every gate has
	// been applied (or after Finish); the session still holds its result.
	ErrSessionDone = errors.New("sim: session complete")
	// ErrSessionAborted is returned by every session method after Abort.
	ErrSessionAborted = errors.New("sim: session aborted")
)

// Session is a resumable, gate-level simulation of one circuit: the unit the
// whole simulator is built around. Run is a thin loop over a Session, and the
// stepping API (Step, StepN, Seek) lets callers observe and steer a
// simulation in flight — inspect the state between gates, drive custom
// approximation policy from outside, or abandon a run early.
//
// A session is single-goroutine: it borrows its Simulator's DD manager and
// must not be interleaved with other runs on the same manager (states from
// earlier runs survive only if listed in Options.KeepAlive). Obtain one with
// Simulator.NewSession or the package-level NewSession, then either call
// Finish to run to completion or step explicitly. After a mid-run error the
// session is dead: every method returns the same sticky error.
type Session struct {
	sim      *Simulator
	c        *circuit.Circuit
	opts     Options
	strategy core.Strategy
	obs      core.Observer
	tracker  *core.FidelityTracker
	res      *Result

	measureRNG *rand.Rand // lazily created on first measurement

	state     dd.VEdge
	next      int // index of the next gate to apply
	highWater int

	// Backend seam (see backend.go). den is non-nil on the density backend;
	// channel/chanDDs/noiseRNG are populated when Options.Noise is active:
	// the lifted per-qubit Kraus operator DDs (cleanup mark roots) and the
	// trajectory branch RNG (statevector backend only).
	den      *density.State
	channel  density.Channel
	chanDDs  [][]dd.MEdge
	noiseRNG *rand.Rand

	// Dynamic reordering (populated when the strategy implements
	// core.Reorderer with Sift enabled; see maybeSift).
	sift          bool
	siftThreshold int
	siftMaxVars   int
	siftMaxPasses int

	start      time.Time
	startTable WeightTableStats // weight-table counters when the run began

	err      error // sticky failure; nil while healthy
	finished bool  // Finish completed; res is final
}

// NewSession starts a resumable simulation of the circuit on this simulator's
// manager. The circuit is validated and the initial state prepared eagerly,
// so errors surface here rather than on the first Step.
func (s *Simulator) NewSession(c *circuit.Circuit, opts Options) (*Session, error) {
	ses := &Session{}
	if err := ses.init(s, c, opts); err != nil {
		return nil, err
	}
	return ses, nil
}

// NewSession starts a resumable simulation on a fresh simulator (one new DD
// manager owned by the session).
func NewSession(c *circuit.Circuit, opts Options) (*Session, error) {
	return New().NewSession(c, opts)
}

// init prepares the session. It is split from NewSession so Run can hold the
// Session on the stack and stay allocation-neutral with the pre-Session loop.
func (ses *Session) init(s *Simulator, c *circuit.Circuit, opts Options) error {
	strategy := opts.Strategy
	if strategy == nil {
		strategy = core.Exact{}
	}
	if err := strategy.Init(c.Len(), c.Blocks()); err != nil {
		return err
	}
	obs := opts.Observer
	if obs == nil {
		obs = core.NopObserver{}
	}
	highWater := opts.cleanupHighWater
	if highWater <= 0 {
		highWater = 1 << 17
	}

	m := s.M

	// Variable ordering. A strategy implementing core.Reorderer chooses the
	// qubit→level order the whole run executes under; it must be installed
	// before the initial state is built. Reordering is incompatible with
	// cross-run KeepAlive states (they were built under the previous order
	// and would silently change meaning) and with permutation gates (their
	// payloads address DD levels directly). Runs without a reordering
	// strategy restore the identity order so results stay reproducible when
	// one simulator runs several circuits in sequence.
	var policy core.ReorderPolicy
	reorderer, hasReorder := strategy.(core.Reorderer)
	if hasReorder {
		policy = reorderer.ReorderPolicy()
	}
	var initialOrder []int
	if hasReorder {
		if len(opts.KeepAlive) > 0 {
			return fmt.Errorf("sim: reordering cannot be combined with KeepAlive states from earlier runs")
		}
		if (policy.Sift || (policy.Static != "" && policy.Static != order.Identity)) && order.HasPermGate(c) {
			return fmt.Errorf("sim: circuit %q carries permutation gates, which require the identity order", c.Name)
		}
		if policy.Static != "" {
			perm, err := order.Compute(policy.Static, c)
			if err != nil {
				return err
			}
			if err := m.SetOrder(perm); err != nil {
				return err
			}
		}
		initialOrder = m.Order(c.NumQubits)
	} else if !m.OrderIsIdentity() && len(opts.KeepAlive) == 0 {
		m.ResetOrder()
	}

	startTable := weightTableCounters(m.CN)
	backend := opts.Backend
	if backend == "" {
		backend = BackendStatevector
	}
	res := &Result{
		Manager:      m,
		NumQubits:    c.NumQubits,
		GateCount:    c.Len(),
		StrategyName: strategy.Name(),
		InitialOrder: initialOrder,
		Backend:      backend,
		Noise:        opts.Noise,
	}
	if opts.CollectSizeHistory {
		res.SizeHistory = make([]int, 0, c.Len())
	}

	// Invalidate the simulator's retained gate cache: stale operation DDs
	// from an earlier run can never leak in, but the signature slots (and
	// the slice capacity) survive across runs on one simulator.
	s.clearGateCache()

	*ses = Session{
		sim:        s,
		c:          c,
		opts:       opts,
		strategy:   strategy,
		obs:        obs,
		tracker:    core.NewFidelityTracker(),
		res:        res,
		highWater:  highWater,
		start:      time.Now(),
		startTable: startTable,
	}
	// Backend-specific state: the density matrix (or the vector initial
	// state) and any lifted noise-channel DDs. Built after the variable
	// order is settled above, since lifted operators address DD levels
	// through the current order.
	if err := ses.initBackend(m, c, opts); err != nil {
		return err
	}
	if ses.den == nil {
		ses.state = m.BasisState(c.NumQubits, opts.InitialState)
	}
	res.MaxDDSize = ses.curSize()
	if hasReorder && policy.Sift {
		ses.sift = true
		ses.siftThreshold = policy.SiftThreshold
		if ses.siftThreshold <= 0 {
			ses.siftThreshold = 4096
		}
		ses.siftMaxPasses = policy.SiftMaxPasses
		if ses.siftMaxPasses <= 0 {
			ses.siftMaxPasses = 2
		}
		ses.siftMaxVars = policy.SiftMaxVars
	}
	return nil
}

// Pos returns the index of the next gate to apply (== the number of gates
// applied so far; == GateCount once the circuit is exhausted).
func (ses *Session) Pos() int { return ses.next }

// Remaining returns the number of gates not yet applied.
func (ses *Session) Remaining() int { return ses.c.Len() - ses.next }

// State returns the current state DD (statevector backend; the zero edge on
// the density backend). The edge is live only while the session's manager
// performs no further gates or cleanups; copy amplitudes out
// (Manager.ToVector) before stepping on if you need them to persist.
func (ses *Session) State() dd.VEdge { return ses.state }

// Density returns the current density-matrix state (density backend only;
// nil otherwise). The same liveness caveat as State applies.
func (ses *Session) Density() *density.State { return ses.den }

// Err returns the sticky error that ended the session early, if any.
func (ses *Session) Err() error { return ses.err }

// Step applies the next gate (including any approximation round and node-pool
// cleanup it triggers). It returns ErrSessionDone when no gates remain and
// the sticky error after a failure or Abort.
func (ses *Session) Step() error {
	if ses.err != nil {
		return ses.err
	}
	if ses.next >= ses.c.Len() {
		return ErrSessionDone
	}
	if err := ses.step(); err != nil {
		return ses.fail(err)
	}
	return nil
}

// StepN applies up to k gates, stopping early at the end of the circuit,
// and returns the number of gates applied. Reaching the end while applying
// gates is success; a call with no gates left (and k > 0) returns
// (0, ErrSessionDone) so driver loops terminate like Step loops do.
func (ses *Session) StepN(k int) (int, error) {
	if ses.err != nil {
		return 0, ses.err
	}
	if k > 0 && ses.next >= ses.c.Len() {
		return 0, ErrSessionDone
	}
	applied := 0
	for applied < k && ses.next < ses.c.Len() {
		if err := ses.step(); err != nil {
			return applied, ses.fail(err)
		}
		applied++
	}
	return applied, nil
}

// Seek advances the session until the next gate to apply is gateIndex.
// Sessions only move forward (a DD state cannot be un-applied); seeking
// backward or past the circuit end is an error that does not damage the
// session.
func (ses *Session) Seek(gateIndex int) error {
	if ses.err != nil {
		return ses.err
	}
	if gateIndex < ses.next {
		return fmt.Errorf("sim: cannot seek backward to gate %d (session is at %d); start a new session", gateIndex, ses.next)
	}
	if gateIndex > ses.c.Len() {
		return fmt.Errorf("sim: seek target %d beyond circuit length %d", gateIndex, ses.c.Len())
	}
	for ses.next < gateIndex {
		if err := ses.step(); err != nil {
			return ses.fail(err)
		}
	}
	return nil
}

// Finish applies every remaining gate and finalizes the Result. Calling
// Finish again returns the same Result. After a failure (or Abort) it
// returns the sticky error.
func (ses *Session) Finish() (*Result, error) {
	if ses.err != nil {
		return nil, ses.err
	}
	if ses.finished {
		return ses.res, nil
	}
	for ses.next < ses.c.Len() {
		if err := ses.step(); err != nil {
			return nil, ses.fail(err)
		}
	}
	ses.finished = true
	res := ses.res
	m := ses.sim.M
	if ses.den != nil {
		// Absorb accumulated float drift so downstream probability reads
		// sum to 1, then snapshot the mixedness of the final state.
		ses.den.NormalizeTrace()
		res.Density = ses.den
		res.Purity = ses.den.Purity()
		res.FinalDDSize = m.CountM(ses.den.Root)
	} else {
		res.Final = ses.state
		res.FinalDDSize = m.CountV(ses.state)
	}
	if res.InitialOrder != nil {
		res.FinalOrder = m.Order(res.NumQubits)
	}
	res.DDStats = m.Stats()
	end := weightTableCounters(m.CN)
	res.WeightTable = WeightTableStats{
		Peak:       end.Peak,
		Lookups:    end.Lookups - ses.startTable.Lookups,
		Hits:       end.Hits - ses.startTable.Hits,
		OutOfRange: end.OutOfRange - ses.startTable.OutOfRange,
	}
	res.Rounds = ses.tracker.Rounds()
	res.EstimatedFidelity = ses.tracker.Achieved()
	res.FidelityBound = ses.tracker.Bound()
	res.Runtime = time.Since(ses.start)
	ses.obs.OnFinish(core.FinishEvent{
		GatesApplied:      ses.next,
		MaxDDSize:         res.MaxDDSize,
		FinalDDSize:       res.FinalDDSize,
		Rounds:            len(res.Rounds),
		EstimatedFidelity: res.EstimatedFidelity,
	})
	return res, nil
}

// Abort ends the session early and returns its pooled nodes: every node not
// reachable from Options.KeepAlive goes back to the manager's free stacks
// (states from this session, including the one State returned, become
// invalid). Subsequent calls on the session return ErrSessionAborted.
// Aborting a finished or already-failed session is a no-op.
func (ses *Session) Abort() {
	if ses.err != nil || ses.finished {
		return
	}
	ses.err = ErrSessionAborted
	finalSize := ses.curSize() // before the sweep frees these nodes
	ses.sim.M.Cleanup(ses.opts.KeepAlive, nil)
	ses.obs.OnFinish(core.FinishEvent{
		GatesApplied:      ses.next,
		MaxDDSize:         ses.res.MaxDDSize,
		FinalDDSize:       finalSize,
		Rounds:            ses.tracker.Count(),
		EstimatedFidelity: ses.tracker.Achieved(),
		Aborted:           true,
	})
}

// fail records a mid-run error and reports the end of the session to the
// observer.
func (ses *Session) fail(err error) error {
	ses.err = err
	ses.obs.OnFinish(core.FinishEvent{
		GatesApplied:      ses.next,
		MaxDDSize:         ses.res.MaxDDSize,
		FinalDDSize:       ses.curSize(),
		Rounds:            ses.tracker.Count(),
		EstimatedFidelity: ses.tracker.Achieved(),
		Err:               err,
	})
	return err
}

// step applies gate ses.next under either backend: the single between-gate
// interruption check, the gate or measurement and its noise (the backend's
// apply), size accounting, strategy consultation and sifting (statevector
// only: the density backend requires core.Exact), and occupancy-triggered
// cleanup.
func (ses *Session) step() error {
	i := ses.next
	c, m := ses.c, ses.sim.M
	if ctx := ses.opts.Context; ctx != nil {
		if err := context.Cause(ctx); err != nil {
			if errors.Is(err, ErrDeadlineExceeded) {
				return fmt.Errorf("after gate %d of %d: %w", i, c.Len(), err)
			}
			return fmt.Errorf("sim: canceled after gate %d of %d: %w", i, c.Len(), err)
		}
	}
	g := c.Gates()[i]
	// op is the unitary the backend applies: the gate, or the X that resets
	// a qubit measured as 1 (none, op.N == nil, after a plain measurement).
	var op dd.MEdge
	var err error
	switch g.Kind {
	case circuit.KindMeasure, circuit.KindReset:
		if ses.measureRNG == nil {
			ses.measureRNG = rand.New(rand.NewSource(ses.opts.MeasurementSeed))
		}
		var bit int
		if ses.den != nil {
			bit = ses.den.MeasureQubit(g.Target, ses.measureRNG)
		} else {
			bit, ses.state = m.MeasureQubit(ses.state, g.Target, c.NumQubits, ses.measureRNG)
		}
		ses.res.Measurements = append(ses.res.Measurements, Measurement{
			GateIndex: i, Qubit: g.Target, Outcome: bit,
		})
		if g.Kind == circuit.KindReset && bit == 1 {
			op = m.MakeGateDD(c.NumQubits, [4]complex128{0, 1, 1, 0}, g.Target)
		}
	default:
		if op, err = ses.sim.gateDD(g, c.NumQubits); err != nil {
			return fmt.Errorf("sim: gate %d (%s): %w", i, g.String(), err)
		}
	}
	if ses.den != nil {
		err = ses.applyDensity(i, g, op)
	} else {
		err = ses.applyVector(i, g, op)
	}
	if err != nil {
		return err
	}
	size := ses.curSize()
	if size > ses.res.MaxDDSize {
		ses.res.MaxDDSize = size
	}
	if ses.opts.CollectSizeHistory {
		ses.res.SizeHistory = append(ses.res.SizeHistory, size)
	}
	ses.obs.OnGate(core.GateEvent{Index: i, Size: size})
	if ses.den == nil {
		newState, round, err := ses.strategy.AfterGate(m, i, size, ses.state)
		if err != nil {
			return fmt.Errorf("sim: approximation after gate %d: %w", i, err)
		}
		if round != nil {
			ses.tracker.Record(*round)
			ses.state = newState
			ses.obs.OnApproximation(*round)
			size = round.Report.SizeAfter
		}
		ses.maybeSift(i, size)
	}
	if live := m.Pool().Live; live > ses.highWater {
		ses.cleanup(i, live)
	}
	ses.next = i + 1
	return nil
}

// cleanup sweeps the node pools after gate i. The mark roots are the live
// state (a vector root on the statevector backend, the density matrix root
// on the density backend), Options.KeepAlive, the cached gate DDs and the
// lifted channel DDs.
func (ses *Session) cleanup(i, live int) {
	m := ses.sim.M
	roots := ses.opts.KeepAlive
	mRoots := ses.sim.mRoots[:0]
	if ses.den != nil {
		mRoots = append(mRoots, ses.den.Root)
	} else {
		roots = append([]dd.VEdge{ses.state}, roots...)
	}
	for _, e := range ses.sim.gateDDs {
		if e.N != nil {
			mRoots = append(mRoots, e)
		}
	}
	for _, ops := range ses.chanDDs {
		mRoots = append(mRoots, ops...)
	}
	ses.sim.mRoots = mRoots
	m.Cleanup(roots, mRoots)
	ses.res.Cleanups++
	after := m.Pool().Live
	// If the sweep freed little, most of the pool is genuinely live: raise
	// the trigger so we don't sweep every gate.
	if 4*after > ses.highWater {
		ses.highWater = 4 * after
	}
	ses.obs.OnCleanup(core.CleanupEvent{GateIndex: i, Live: after, Freed: live - after})
}

// maybeSift runs one dynamic variable-reordering pass at the between-gate
// safe point when sifting is enabled and the state has outgrown the trigger
// threshold. The pass is an exact transformation (amplitudes are unchanged,
// so no fidelity round is recorded); the session drops its gate cache — the
// cached operation DDs were built under the old order — and the pass's
// closing Cleanup returns both the stale gates and the exploration
// transients to the node pools. size is the state's node count, taken from
// the round's Report.SizeAfter when an approximation round replaced it.
func (ses *Session) maybeSift(gateIdx, size int) {
	if !ses.sift || ses.res.SiftPasses >= ses.siftMaxPasses {
		return
	}
	if size <= ses.siftThreshold {
		return
	}
	m := ses.sim.M
	state, rep := m.Sift(ses.c.NumQubits, ses.state, ses.siftMaxVars)
	ses.state = state
	ses.sim.clearGateCache()
	// Lifted channel DDs were built under the old order; rebuild them.
	for q := range ses.chanDDs {
		ses.chanDDs[q] = ses.channel.Lift(m, ses.c.NumQubits, q)
	}
	ses.res.SiftPasses++
	ses.res.SiftSwaps += rep.Swaps
	// Raise the trigger past the size sifting reached: if the pass could
	// not compress below the threshold, re-running it after every gate
	// would only burn time.
	if t := 2 * rep.SizeAfter; t > ses.siftThreshold {
		ses.siftThreshold = t
	}
	ses.obs.OnReorder(core.ReorderEvent{
		GateIndex:  gateIdx,
		SizeBefore: rep.SizeBefore,
		SizeAfter:  rep.SizeAfter,
		Swaps:      rep.Swaps,
		Order:      m.Order(ses.c.NumQubits),
	})
}
