package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnum"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/density"
)

// Options configures one simulation run.
type Options struct {
	// Strategy decides when to approximate. nil means exact simulation.
	Strategy core.Strategy
	// Backend selects the state representation: BackendStatevector (the
	// default, also chosen by the empty string) evolves a pure state on a
	// vector DD; BackendDensity evolves a density matrix on a matrix DD,
	// which applies Noise exactly but requires exact simulation (no
	// approximation strategy, no reordering).
	Backend Backend
	// Noise, when non-nil, applies the named channel to every qubit each
	// gate touches: exactly (as a superoperator) on the density backend,
	// as one sampled Kraus branch per application (a Monte-Carlo
	// trajectory) on the statevector backend. nil simulates noiselessly.
	Noise *NoiseModel
	// InitialState selects the starting basis state |InitialState⟩.
	InitialState uint64
	// CollectSizeHistory records the DD size after every gate (costs memory
	// but no extra time; sizes are computed anyway).
	CollectSizeHistory bool
	// cleanupHighWater is the live-node pool occupancy (across both node
	// kinds) that triggers a mark-sweep Cleanup, returning dead nodes to
	// the manager's pools for recycling; 0 selects 1<<17, and only this
	// package's tests lower it to force sweeps. The threshold adapts
	// upward when a sweep leaves the pool mostly live.
	cleanupHighWater int
	// Context, when non-nil, cancels the run between gates once done; the
	// returned error wraps the context's cancellation cause. This is how
	// the batch engine aborts in-flight simulations, and how a run gets a
	// deadline (the paper's timeout column): a context from
	// context.WithTimeoutCause with ErrDeadlineExceeded as its cause.
	Context context.Context
	// MeasurementSeed seeds the RNG used by mid-circuit measurement and
	// reset gates (deterministic per seed).
	MeasurementSeed int64
	// KeepAlive lists state edges from earlier runs on the same manager
	// that must survive this run's Cleanup sweeps (the node pool recycles
	// anything not reachable from a root). RunAndCompare and the Table I
	// true-fidelity column use this to keep the exact reference state valid
	// while the approximate run executes.
	KeepAlive []dd.VEdge
	// Observer, when non-nil, receives lifecycle events (per-gate sizes,
	// approximation rounds, cleanups, completion) as the run executes. It
	// is invoked on the simulating goroutine between gates; nil selects
	// the no-op observer.
	Observer core.Observer
}

// Measurement records one mid-circuit measurement outcome.
type Measurement struct {
	GateIndex int
	Qubit     int
	Outcome   int
}

// ErrDeadlineExceeded is returned (wrapped) when a run's Options.Context is
// done with this error as its cause.
var ErrDeadlineExceeded = errors.New("sim: deadline exceeded")

// Result reports a finished simulation.
type Result struct {
	// Manager owns the final state; callers use it to sample, compute
	// amplitudes, or compare fidelities. For batch and pool jobs, Manager,
	// Final and Density are valid only inside Job.Finalize: the engine
	// clears all three when Finalize returns, so a retained result does
	// not pin its manager.
	Manager *dd.Manager
	// Final is the final state DD (statevector backend; the zero value on
	// the density backend, where Density holds the final state). For batch
	// and pool jobs it is valid only inside Job.Finalize.
	Final dd.VEdge
	// Backend is the representation the run executed under.
	Backend Backend
	// Noise echoes the noise model the run was configured with (nil for a
	// noiseless run).
	Noise *NoiseModel
	// Density is the final density matrix (density backend only). Like
	// Final, it is owned by Manager and stays valid only until the next
	// run on the same manager recycles its nodes (for batch and pool jobs,
	// only inside Job.Finalize).
	Density *density.State
	// Purity is Tr ρ² of the final density matrix (density backend only;
	// 1 for a pure state, 2⁻ⁿ for the maximally mixed state).
	Purity float64
	// ChannelApplications counts noise applications: on the density
	// backend every exact superoperator application (touched qubits ×
	// gates), on the statevector backend only the sampled non-identity
	// Kraus branches (quantum jumps).
	ChannelApplications int
	// NumQubits of the simulated register.
	NumQubits int
	// GateCount applied.
	GateCount int
	// MaxDDSize is the maximum node count of the state DD observed after
	// any gate (the paper's "Max. DD Size" column).
	MaxDDSize int
	// FinalDDSize is the node count of the final state.
	FinalDDSize int
	// SizeHistory holds the per-gate DD sizes when requested.
	SizeHistory []int
	// Rounds lists the approximation rounds that modified the state.
	Rounds []core.Round
	// EstimatedFidelity is the tracked end-to-end fidelity versus the exact
	// state: the product of the per-round measured fidelities (Section V).
	// Lemma 1 makes the product exact for back-to-back truncations; with
	// unitaries between rounds it is the paper's tracked estimate and
	// empirically tight (see the sim tests, which bound the deviation).
	EstimatedFidelity float64
	// FidelityBound is the product of the per-round target fidelities — the
	// quantity the fidelity-driven strategy budgets with ⌊log_fround
	// f_final⌋ so that it stays above the requested f_final.
	FidelityBound float64
	// Runtime is the wall-clock simulation time.
	Runtime time.Duration
	// StrategyName identifies the approximation strategy used.
	StrategyName string
	// Cleanups counts occupancy-triggered mark-sweep node-pool collections
	// (one OnCleanup event each). Sifting passes end in their own sweep,
	// reported via OnReorder and included in DDStats.Cleanups only.
	Cleanups int
	// InitialOrder and FinalOrder record the qubit→level variable order the
	// run started and ended under (nil when no reordering strategy was
	// active, i.e. the identity order throughout). They differ only when
	// dynamic sifting passes ran.
	InitialOrder []int
	FinalOrder   []int
	// SiftPasses and SiftSwaps count dynamic reordering passes and the
	// adjacent-level swaps they performed.
	SiftPasses int
	SiftSwaps  int
	// Measurements lists mid-circuit measurement outcomes in gate order.
	Measurements []Measurement
	// DDStats snapshots the manager's memory-system counters (unique-table
	// sizes, node pool traffic, per-cache hits/misses/evictions) at the end
	// of the run. With a shared manager the counters span its lifetime, not
	// just this run.
	DDStats dd.Stats
	// WeightTable reports complex-weight-table pressure over this run, so
	// long sweeps can spot unbounded interning growth.
	WeightTable WeightTableStats
}

// Sample draws shots samples from the final state's measurement
// distribution without collapsing it, and returns a histogram of basis
// states: the diagonal of Density on the density backend, Final otherwise.
// For batch and pool jobs it must run inside Job.Finalize.
func (r *Result) Sample(shots int, rng *rand.Rand) map[uint64]int {
	if r.Density != nil {
		return r.Density.SampleMany(shots, rng)
	}
	return r.Manager.SampleMany(r.Final, r.NumQubits, shots, rng)
}

// WeightTableStats describes cnum.Table pressure during one simulation run.
type WeightTableStats struct {
	// Peak is the table's interned-value count at the end of the run; a
	// table never shrinks, so this is its high-water mark.
	Peak int
	// Lookups and Hits count table probes during this run only.
	Lookups, Hits int64
	// OutOfRange counts this run's lookups of a weight whose grid cell lies
	// past the int64 range (cnum.Table.OutOfRange): a numeric-health signal,
	// zero on healthy runs.
	OutOfRange int64
}

// weightTableCounters reads cn's lifetime counters; Peak is its size.
func weightTableCounters(cn *cnum.Table) WeightTableStats {
	lookups, hits := cn.Stats()
	return WeightTableStats{Peak: cn.Size(), Lookups: lookups, Hits: hits, OutOfRange: cn.OutOfRange()}
}

// HitRatio returns Hits/Lookups, or 0 when the table was never probed.
func (w WeightTableStats) HitRatio() float64 {
	if w.Lookups == 0 {
		return 0
	}
	return float64(w.Hits) / float64(w.Lookups)
}

// Simulator runs circuits on a dedicated DD manager. A simulator can run
// several circuits in sequence; states from different runs share the manager
// and may be compared with Fidelity.
type Simulator struct {
	M *dd.Manager

	// Gate-DD cache. sigSlots maps gate signatures to slots, so each
	// signature string is allocated once per distinct gate over the
	// simulator's lifetime. gateDDs holds the per-epoch operation DDs (an
	// edge with a nil node is unbuilt); invalidation (session start/end,
	// reorder passes) zeroes the slice without touching the map. Sessions on
	// one simulator are sequential by contract, so sharing the cache is safe.
	sigSlots map[string]int
	gateDDs  []dd.MEdge
	// sigBuf is the reusable gate-signature buffer; slot lookups go through
	// sigSlots[string(sigBuf)] so a hit allocates nothing.
	sigBuf []byte
	// mRoots is the reusable mark-phase root buffer for mid-run Cleanup.
	mRoots []dd.MEdge
}

// New returns a Simulator with a fresh manager.
func New() *Simulator { return &Simulator{M: dd.New()} }

// Recycle sweeps the manager's node pools with no roots, returning every
// node built by previous runs to the free stacks for reuse. Edges from
// earlier Results (including Result.Final) become invalid.
func (s *Simulator) Recycle() { s.M.Cleanup(nil, nil) }

// clearGateCache invalidates every cached operation DD while keeping the
// signature-to-slot map (and its interned key strings) intact.
func (s *Simulator) clearGateCache() {
	clear(s.gateDDs) // zero the elements; slots and capacity survive
}

// Run simulates the circuit under the given options. It is a thin loop over
// a Session — results are identical to stepping a session to completion —
// kept allocation-neutral by holding the session on the stack.
func (s *Simulator) Run(c *circuit.Circuit, opts Options) (*Result, error) {
	var ses Session
	if err := ses.init(s, c, opts); err != nil {
		return nil, err
	}
	return ses.Finish()
}

// gateDD builds (or fetches) the operation DD for a gate.
func (s *Simulator) gateDD(g circuit.Gate, n int) (dd.MEdge, error) {
	switch g.Kind {
	case circuit.KindUnitary:
		s.sigBuf = appendGateSignature(s.sigBuf[:0], g)
		slot, ok := s.sigSlots[string(s.sigBuf)]
		if !ok {
			if s.sigSlots == nil {
				s.sigSlots = make(map[string]int, 32)
			}
			slot = len(s.gateDDs)
			s.sigSlots[string(s.sigBuf)] = slot
			s.gateDDs = append(s.gateDDs, dd.MEdge{})
		}
		if e := s.gateDDs[slot]; e.N != nil {
			return e, nil
		}
		e, err := g.DD(s.M, n)
		s.gateDDs[slot] = e
		return e, err
	case circuit.KindPerm:
		if !s.M.OrderIsIdentity() {
			return dd.MEdge{}, fmt.Errorf("permutation gates require the identity variable order")
		}
	}
	return g.DD(s.M, n)
}

// appendGateSignature appends the gate's cache key to buf. Callers look the
// key up via cache[string(buf)], which the compiler recognizes as a
// no-allocation map access — so a cache hit costs zero allocations and only
// a miss materializes the string (as the stored key).
func appendGateSignature(buf []byte, g circuit.Gate) []byte {
	buf = append(buf, g.Name...)
	for _, p := range g.Params {
		buf = append(buf, '(')
		buf = strconv.AppendFloat(buf, p, 'g', -1, 64)
	}
	buf = append(buf, '@')
	buf = strconv.AppendInt(buf, int64(g.Target), 10)
	for _, c := range g.Controls {
		if c.Positive {
			buf = append(buf, '+')
		} else {
			buf = append(buf, '-')
		}
		buf = strconv.AppendInt(buf, int64(c.Qubit), 10)
	}
	return buf
}
