package repro

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/batch"
	"repro/internal/benchtab"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/density"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/order"
	"repro/internal/qasm"
	"repro/internal/serve"
	"repro/internal/shor"
	"repro/internal/sim"
	"repro/internal/supremacy"
	"repro/internal/verify"
)

// Core simulation types.
type (
	// Circuit is the gate-list IR accepted by the simulator.
	Circuit = circuit.Circuit
	// Gate is one circuit operation.
	Gate = circuit.Gate
	// Control is a (possibly negative) gate control.
	Control = dd.Control
	// Manager owns decision diagrams; exposed for state inspection.
	Manager = dd.Manager
	// VEdge is a state decision diagram (weighted root edge).
	VEdge = dd.VEdge
	// MEdge is an operation decision diagram.
	MEdge = dd.MEdge
	// Options configures a simulation run; the zero value runs exact.
	Options = sim.Options
	// Session is a resumable gate-level simulation: Step/StepN/Seek
	// through the circuit, inspect State between gates, Abort early, or
	// Finish for the Result. Run is a loop over a Session.
	Session = sim.Session
	// Result reports a finished run.
	Result = sim.Result
	// Comparison relates approximate and exact runs.
	Comparison = sim.Comparison
)

// Approximation types (the paper's contribution).
type (
	// Strategy decides when to approximate during simulation.
	Strategy = core.Strategy
	// MemoryDriven is the reactive strategy of Section IV-B.
	MemoryDriven = core.MemoryDriven
	// FidelityDriven is the proactive strategy of Section IV-C.
	FidelityDriven = core.FidelityDriven
	// ReplaceDriven is the node-replacement strategy (arXiv 2507.04335):
	// low-contribution nodes are swapped for cheaper substitutes —
	// SubstituteKind values "collapse" and "promote" — instead of zeroed,
	// holding fidelity higher at the same node budget.
	ReplaceDriven = core.ReplaceDriven
	// SubstituteKind names one replacement shape of ReplaceDriven.
	SubstituteKind = core.SubstituteKind
	// Exact disables approximation.
	Exact = core.Exact
	// Report describes one approximation round.
	Report = core.Report
	// Round is a report bound to its circuit position.
	Round = core.Round
	// StrategyFactory builds a fresh Strategy from JSON parameters; pair
	// with RegisterStrategy to make custom strategies addressable by name,
	// in-process and over the simulation service's HTTP API.
	StrategyFactory = core.StrategyFactory
)

// Observation types: simulation lifecycle events delivered mid-run.
type (
	// Observer receives per-gate, approximation, cleanup, and finish
	// events as a simulation executes (WithObserver / Options.Observer).
	Observer = core.Observer
	// NopObserver ignores every event; embed it for partial observers.
	NopObserver = core.NopObserver
	// GateEvent reports one applied gate and the DD size after it.
	GateEvent = core.GateEvent
	// CleanupEvent reports a node-pool mark-sweep collection.
	CleanupEvent = core.CleanupEvent
	// ReorderEvent reports a dynamic variable-reordering (sifting) pass.
	ReorderEvent = core.ReorderEvent
	// ChannelEvent reports a noise-channel application: exact superoperator
	// applications on the density backend (Branch −1), sampled quantum
	// jumps on a trajectory (Branch ≥ 1).
	ChannelEvent = core.ChannelEvent
	// FinishEvent summarizes a finished, failed, or aborted session.
	FinishEvent = core.FinishEvent
)

// Noisy simulation: the density-matrix backend and quantum-trajectory
// sampling (internal/density, internal/sim).
type (
	// Backend selects a run's state representation: BackendStatevector
	// (default) or BackendDensity (exact noisy simulation on ρ).
	Backend = sim.Backend
	// NoiseModel describes a noise channel applied after every gate to
	// each touched qubit (kind, strength, trajectory seed).
	NoiseModel = sim.NoiseModel
	// DensityState is a density matrix on matrix decision diagrams, with
	// purity, fidelity, probability, and sampling extraction.
	DensityState = density.State
	// NoiseChannel is a single-qubit Kraus channel; build one with
	// NewNoiseChannel.
	NoiseChannel = density.Channel
	// NoiseKind names a built-in channel (density.Depolarizing, ...).
	NoiseKind = density.Kind
)

// Simulation backends.
const (
	BackendStatevector = sim.BackendStatevector
	BackendDensity     = sim.BackendDensity
)

// NewNoiseChannel builds a built-in single-qubit channel (depolarizing,
// amplitude_damping, dephasing, bit_flip, phase_flip) of strength p,
// validating Kraus completeness.
func NewNoiseChannel(kind NoiseKind, p float64) (NoiseChannel, error) {
	return density.New(kind, p)
}

// NoiseKinds lists the built-in channel kinds.
func NoiseKinds() []NoiseKind { return density.Kinds() }

// Variable ordering (the reordering layer of internal/order and
// internal/dd): the qubit→level order is as decisive for DD size as the
// paper's truncations, and the two compound.
type (
	// ReorderPolicy is a strategy's variable-ordering request: a static
	// ordering name plus optional dynamic sifting bounds.
	ReorderPolicy = core.ReorderPolicy
	// ReorderStrategy wraps an inner approximation strategy with a
	// reordering policy; build one with NewReorder or by registry name
	// ("reorder") with order.Params-shaped JSON.
	ReorderStrategy = order.Strategy
)

// NewReorder wraps inner (nil = exact) with a variable-reordering policy,
// e.g. repro.NewReorder(repro.ReorderPolicy{Static: "scored", Sift: true}, nil).
func NewReorder(policy ReorderPolicy, inner Strategy) *ReorderStrategy {
	return order.NewReorder(policy, inner)
}

// OrderingNames lists the supported static ordering names ("identity",
// "reversed", "scored").
func OrderingNames() []string { return order.Names() }

// Workload types.
type (
	// SupremacyConfig describes a quantum-supremacy benchmark circuit.
	SupremacyConfig = supremacy.Config
	// ShorInstance is one shor_N_a benchmark.
	ShorInstance = shor.Instance
	// ShorRunOptions configures an end-to-end Shor run.
	ShorRunOptions = shor.RunOptions
	// ShorOutcome bundles simulation and factoring results.
	ShorOutcome = shor.Outcome
	// Table1Suite regenerates Table I.
	Table1Suite = benchtab.Suite
	// Table1Row is one Table I line.
	Table1Row = benchtab.Row
	// Table1RunOptions configures suite execution (worker count, seeds);
	// accepted by Table1Suite.RunMemoryDriven and RunFidelityDriven.
	Table1RunOptions = benchtab.RunOptions
	// QASMProgram is a parsed OpenQASM 2.0 program.
	QASMProgram = qasm.Program
)

// Batch simulation (the worker-pool engine of internal/batch).
type (
	// BatchJob is one independent simulation in a batch.
	BatchJob = batch.Job
	// BatchJobResult is the outcome of one batch job.
	BatchJobResult = batch.JobResult
	// BatchOptions configures a batch (workers, base seed, job timeout,
	// observer).
	BatchOptions = batch.Options
	// BatchResult aggregates a finished batch.
	BatchResult = batch.Result
	// BatchObserver receives batch-lifecycle events (per-job start/done)
	// on the worker goroutines.
	BatchObserver = batch.Observer
	// BatchWorkerStats aggregates one worker's jobs and busy time
	// (BatchResult.PerWorker, pool state snapshots).
	BatchWorkerStats = batch.WorkerStats
)

// Typed batch submission/cancellation errors, re-exported so callers can
// errors.Is against pool outcomes without importing internal packages. The
// client package re-exports the same sentinels for HTTP callers.
var (
	// ErrBatchQueueFull: the service/pool queue was full (load shedding).
	ErrBatchQueueFull = batch.ErrQueueFull
	// ErrBatchShutdown: the pool stopped accepting jobs.
	ErrBatchShutdown = batch.ErrShutdown
	// ErrBatchCanceled: the job was canceled without a custom cause.
	ErrBatchCanceled = batch.ErrCanceled
)

// Simulation service (the asynchronous HTTP/JSON frontend of internal/serve,
// served standalone by cmd/simd).
type (
	// Server is the embeddable simulation service: an HTTP handler backed
	// by a batch worker pool and a content-addressed result cache.
	Server = serve.Server
	// ServeConfig sizes a Server (workers, queue depth, cache entries,
	// default timeout, request limits).
	ServeConfig = serve.Config
	// ServeJobRequest is the POST /v1/jobs submission body.
	ServeJobRequest = serve.JobRequest
	// ServeJobStatus is the per-job API envelope.
	ServeJobStatus = serve.JobStatus
	// ServeResult is the JSON payload of a finished job.
	ServeResult = serve.ResultPayload
	// ServeStats is the GET /v1/stats body (cache, pool, DD counters).
	ServeStats = serve.Stats
	// ServeEvent is one entry of a job's SSE stream
	// (GET /v1/jobs/{id}/events), sourced from the simulation Observer.
	// The typed consumer lives in the public client package.
	ServeEvent = serve.Event
	// ServePool is the worker-pool occupancy snapshot inside ServeStats.
	ServePool = batch.PoolState
)

// NewServer returns a running simulation service; mount it with
// Server.Handler (it also implements http.Handler directly) and stop it
// with Server.Shutdown.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// Serve listens on addr and serves the simulation API until ctx is
// canceled, then shuts down gracefully, giving in-flight jobs the grace
// period before canceling them (0 waits indefinitely).
func Serve(ctx context.Context, addr string, cfg ServeConfig, grace time.Duration) error {
	return serve.Serve(ctx, addr, cfg, grace)
}

// BatchRun fans independent simulation jobs out across a worker pool, one
// fresh DD manager per job:
//
//	res, err := repro.BatchRun(ctx, jobs,
//		repro.BatchOptions{Workers: 4, JobTimeout: time.Minute})
//
// Seeding is deterministic per job (derived from the base seed and the job
// index), cancellation is context-based, and per-job deadlines are
// supported. Results are ordered by job index and are bit-identical for any
// worker count (timing fields aside). A job's final state is readable only
// in its BatchJob.Finalize hook; the returned results no longer hold it.
func BatchRun(ctx context.Context, jobs []BatchJob, opts BatchOptions) (*BatchResult, error) {
	return batch.Run(ctx, jobs, opts)
}

// BatchSeed returns the measurement seed the batch engine derives for the
// job at the given index from a base seed.
func BatchSeed(base int64, index int) int64 { return batch.Seed(base, index) }

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int, name string) *Circuit { return circuit.New(n, name) }

// Run simulates the circuit on a fresh DD manager, Result.Manager:
//
//	res, err := repro.Run(c, repro.Options{
//		Strategy: repro.NewFidelityDriven(0.8, 0.95), MeasurementSeed: 7})
//
// Every run owns its manager; Manager.Fidelity compares final states of
// different runs.
func Run(c *Circuit, opts Options) (*Result, error) {
	return sim.Run(c, opts)
}

// NewSession starts a resumable gate-level simulation on a fresh DD
// manager: step, observe, and steer it mid-run, then Finish for the Result.
func NewSession(c *Circuit, opts Options) (*Session, error) {
	return sim.NewSession(c, opts)
}

// RegisterStrategy makes a custom approximation strategy constructible by
// name — usable in-process (NewStrategyByName, Options.Strategy) and over the
// simulation service's HTTP API (JobRequest.Strategy/StrategyParams). See
// core.RegisterStrategy for the registry contract.
func RegisterStrategy(name string, factory StrategyFactory) error {
	return core.RegisterStrategy(name, factory)
}

// NewStrategyByName builds a fresh strategy instance from the registry
// ("exact", "memory", "fidelity", or any registered name).
func NewStrategyByName(name string, params json.RawMessage) (Strategy, error) {
	return core.NewStrategyByName(name, params)
}

// StrategyNames lists every registered strategy name, sorted.
func StrategyNames() []string { return core.StrategyNames() }

// RunAndCompare simulates a circuit exactly and approximately, each on its
// own manager, and measures the true fidelity between the final states.
func RunAndCompare(c *Circuit, opts Options) (*Comparison, error) {
	return sim.RunAndCompare(c, opts)
}

// NewFidelityDriven returns the fidelity-driven strategy with the paper's
// defaults (late block placement).
func NewFidelityDriven(finalFidelity, roundFidelity float64) *FidelityDriven {
	return core.NewFidelityDriven(finalFidelity, roundFidelity)
}

// ApproximateToFidelity applies one approximation round to a state DD,
// removing the smallest-contribution nodes within the 1−fround budget
// (Section IV-A).
func ApproximateToFidelity(m *Manager, e VEdge, fround float64) (VEdge, Report, error) {
	return core.ApproximateToFidelity(m, e, fround)
}

// NodeContributions computes Definition 2's per-node contributions.
func NodeContributions(m *Manager, e VEdge) map[*dd.VNode]float64 {
	return core.Contributions(m, e)
}

// NewShorInstance validates a shor_N_a benchmark instance.
func NewShorInstance(n, a uint64) (*ShorInstance, error) { return shor.NewInstance(n, a) }

// ShorFactor factors n end-to-end with simulated order finding.
func ShorFactor(n uint64, opts ShorRunOptions) (*ShorOutcome, error) {
	return shor.Factor(n, opts)
}

// ParseQASM parses an OpenQASM 2.0 source into a circuit.
func ParseQASM(src, name string) (*QASMProgram, error) { return qasm.Parse(src, name) }

// Table1 returns the benchmark suite for a preset ("small", "medium",
// "paper").
func Table1(preset string) (Table1Suite, error) { return benchtab.NewSuite(preset) }

// FormatTable renders Table I rows as markdown.
func FormatTable(rows []Table1Row) string { return benchtab.FormatMarkdown(rows) }

// FormatTableCSV renders Table I rows as CSV.
func FormatTableCSV(rows []Table1Row) string { return benchtab.FormatCSV(rows) }

// Circuit generators re-exported from internal/gen.

// QFTCircuit returns an n-qubit quantum Fourier transform.
func QFTCircuit(n int) *Circuit { return gen.QFT(n) }

// InverseQFTCircuit returns an n-qubit inverse QFT.
func InverseQFTCircuit(n int) *Circuit { return gen.InverseQFT(n) }

// GHZCircuit prepares the n-qubit GHZ state.
func GHZCircuit(n int) *Circuit { return gen.GHZ(n) }

// WStateCircuit prepares the n-qubit W state.
func WStateCircuit(n int) *Circuit { return gen.WState(n) }

// GroverCircuit searches for `marked` on n qubits.
func GroverCircuit(n int, marked uint64, iterations int) *Circuit {
	return gen.Grover(n, marked, iterations)
}

// BernsteinVaziraniCircuit recovers an n-bit secret in one query.
func BernsteinVaziraniCircuit(n int, secret uint64) *Circuit {
	return gen.BernsteinVazirani(n, secret)
}

// RandomCliffordTCircuit returns a seeded random {H,S,T,CX} circuit.
func RandomCliffordTCircuit(n, gates int, seed int64) *Circuit {
	return gen.RandomCliffordT(n, gates, seed)
}

// CountNodes returns the node count of a state DD (the paper's size metric).
func CountNodes(e VEdge) int { return dd.CountVNodes(e) }

// RenderDD returns a human-readable description of a state DD.
func RenderDD(e VEdge) string { return dd.Render(e) }

// DOTDD renders a state DD in Graphviz format (Fig. 1b style).
func DOTDD(e VEdge, name string) string { return dd.DOT(e, name) }

// ExportQASM renders a circuit as OpenQASM 2.0 source.
func ExportQASM(c *Circuit) (string, error) { return qasm.Export(c) }

// EquivalenceResult reports a circuit equivalence check.
type EquivalenceResult = verify.Result

// CircuitsEquivalent checks unitary equivalence up to global phase via
// decision diagrams (V†·U ≟ λ·I).
func CircuitsEquivalent(u, v *Circuit) (*EquivalenceResult, error) {
	return verify.Equivalent(u, v)
}

// ApproximateToSize shrinks a state DD to at most maxNodes nodes, reporting
// (but not bounding) the fidelity cost.
func ApproximateToSize(m *Manager, e VEdge, maxNodes int) (VEdge, Report, error) {
	return core.ApproximateToSize(m, e, maxNodes)
}

// OptimizeStats reports what OptimizeCircuit did.
type OptimizeStats = opt.Stats

// OptimizeCircuit returns an equivalent circuit with adjacent inverse pairs
// cancelled, rotations merged, and identity gates dropped.
func OptimizeCircuit(c *Circuit) (*Circuit, OptimizeStats) { return opt.Optimize(c) }
