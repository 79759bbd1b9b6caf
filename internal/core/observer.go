package core

// Observer receives simulation lifecycle events as they happen, turning the
// paper's mid-run interventions (memory-driven contraction, fidelity-driven
// rounds) into a stream callers can watch live instead of reconstructing from
// post-hoc Result fields. The simulation driver invokes every method on the
// simulating goroutine, strictly in event order; implementations must be fast
// (they sit between gates on the hot path) and must not retain the state DD.
//
// NopObserver is the cheap default; embed it to implement a subset.
type Observer interface {
	// OnGate fires after each gate has been applied (and before any
	// approximation round that gate triggers).
	OnGate(e GateEvent)
	// OnApproximation fires after an approximation round modified the
	// state (no-op rounds are not reported, matching Result.Rounds).
	OnApproximation(r Round)
	// OnCleanup fires after a mark-sweep node-pool collection.
	OnCleanup(e CleanupEvent)
	// OnReorder fires after a dynamic variable-reordering (sifting) pass
	// changed the qubit→level order mid-run.
	OnReorder(e ReorderEvent)
	// OnChannel fires after a noise-channel application: once per touched
	// qubit per gate on the density backend (exact superoperator), and on
	// the statevector backend only when a trajectory sampled a non-identity
	// Kraus branch (a quantum jump).
	OnChannel(e ChannelEvent)
	// OnFinish fires exactly once when the session ends: after the last
	// gate, on a mid-run error, or on Session.Abort.
	OnFinish(e FinishEvent)
}

// GateEvent describes one applied gate.
type GateEvent struct {
	// Index is the 0-based position of the gate just applied.
	Index int
	// Size is the node count of the state DD after the gate (before any
	// approximation round at this position).
	Size int
}

// CleanupEvent describes one mark-sweep node-pool collection.
type CleanupEvent struct {
	// GateIndex is the gate after which the sweep ran.
	GateIndex int
	// Live is the pool occupancy after the sweep; Freed is how many nodes
	// the sweep returned to the free stacks.
	Live, Freed int
}

// ReorderEvent describes one dynamic variable-reordering pass.
type ReorderEvent struct {
	// GateIndex is the gate after which the pass ran.
	GateIndex int
	// SizeBefore and SizeAfter are the state-DD node counts around the
	// pass (the reduction is exact — reordering never changes amplitudes).
	SizeBefore, SizeAfter int
	// Swaps counts the adjacent-level swaps the pass performed.
	Swaps int
	// Order is the qubit→level permutation after the pass.
	Order []int
}

// ChannelEvent describes one noise-channel application.
type ChannelEvent struct {
	// GateIndex is the gate after which the channel was applied.
	GateIndex int
	// Qubit the channel acted on.
	Qubit int
	// Kind is the channel kind name (e.g. "depolarizing").
	Kind string
	// Strength is the channel's error probability / damping rate.
	Strength float64
	// Branch is -1 for an exact superoperator application (density
	// backend); for a trajectory it is the index (≥ 1) of the sampled
	// non-identity Kraus branch.
	Branch int
	// Size is the node count of the state DD after the application.
	Size int
}

// FinishEvent summarizes a finished (or aborted/failed) simulation.
type FinishEvent struct {
	// GatesApplied is how many gates actually ran (equals the circuit
	// length on success).
	GatesApplied int
	// MaxDDSize and FinalDDSize mirror the Result fields; FinalDDSize is
	// the size at the moment the session ended.
	MaxDDSize, FinalDDSize int
	// Rounds is the number of approximation rounds that modified the state.
	Rounds int
	// EstimatedFidelity is the tracked product of per-round fidelities.
	EstimatedFidelity float64
	// Aborted marks sessions ended by Abort rather than completion.
	Aborted bool
	// Err is the error that ended the session early, nil on success and
	// on Abort.
	Err error
}

// NopObserver ignores every event. It is the default observer and the
// embedding base for partial implementations.
type NopObserver struct{}

// OnGate implements Observer.
func (NopObserver) OnGate(GateEvent) {}

// OnApproximation implements Observer.
func (NopObserver) OnApproximation(Round) {}

// OnCleanup implements Observer.
func (NopObserver) OnCleanup(CleanupEvent) {}

// OnReorder implements Observer.
func (NopObserver) OnReorder(ReorderEvent) {}

// OnChannel implements Observer.
func (NopObserver) OnChannel(ChannelEvent) {}

// OnFinish implements Observer.
func (NopObserver) OnFinish(FinishEvent) {}
