package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/sim"
)

// Job status values reported by the API.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
	StatusDeadline = "deadline_exceeded"
)

// Machine-readable error codes carried in the error envelope's "code" field,
// so clients can map rejections back to typed sentinels (batch.ErrQueueFull,
// batch.ErrShutdown, batch.ErrCanceled) instead of matching message text.
const (
	CodeQueueFull = "queue_full"
	CodeShutdown  = "shutdown"
	CodeCanceled  = "canceled"
)

// errorCode classifies an error into an API error code ("" when untyped).
func errorCode(err error) string {
	switch {
	case errors.Is(err, batch.ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, batch.ErrShutdown):
		return CodeShutdown
	case errors.Is(err, batch.ErrCanceled):
		return CodeCanceled
	}
	return ""
}

// Config sizes a Server. The zero value selects sensible defaults
// everywhere: one worker per CPU, a 4×workers submission queue, a
// 1024-entry result cache, fresh managers per job, and no qubit/shot/time
// limits.
type Config struct {
	// Workers is the simulation worker count (≤ 0 = one per CPU).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; beyond it,
	// submissions are rejected with 503 so callers can shed load (≤ 0 =
	// 4×Workers).
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (0 = 1024,
	// negative = caching disabled).
	CacheEntries int
	// DefaultJobTimeout bounds jobs that do not set timeout_ms (0 = none).
	DefaultJobTimeout time.Duration
	// MaxQubits rejects circuits above this register width (0 = no limit).
	MaxQubits int
	// MaxShots rejects submissions requesting more samples (0 = no limit).
	MaxShots int
	// MaxBodyBytes bounds the request body (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxJobs bounds the job registry: when more jobs than this are
	// retained, the oldest finished ones are evicted (their ids start
	// returning 404; running and queued jobs are never evicted). 0 selects
	// 4096, negative disables the bound. This keeps a long-running server's
	// memory proportional to the bound, not to its submission history.
	MaxJobs int
	// EventBufferSize bounds each job's retained event stream (per-gate
	// sizes, approximation rounds, cleanups) served on
	// GET /v1/jobs/{id}/events. When a simulation emits more events than
	// this, the oldest are evicted and streams report the gap; 0 selects
	// 1024, the minimum is 16. The buffer never blocks the simulation.
	EventBufferSize int
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 4096
	}
	if c.EventBufferSize <= 0 {
		c.EventBufferSize = 1024
	} else if c.EventBufferSize < 16 {
		c.EventBufferSize = 16
	}
	if c.MaxJobs < 0 {
		c.MaxJobs = 0 // unbounded
	}
	return c
}

// Server is an asynchronous simulation-as-a-service frontend over the batch
// worker pool: submissions become pool jobs, results are retained per job id
// and deduplicated across identical submissions through a content-addressed
// LRU cache. Create with New, mount via Handler or ServeHTTP, and stop with
// Shutdown.
type Server struct {
	cfg   Config
	pool  *batch.Pool
	cache *resultCache
	// memo remembers what each successfully resolved body resolved to,
	// bounded like the cache (CacheEntries; none when caching is off).
	memo *BodyMemo
	mux  *http.ServeMux

	mu      sync.Mutex
	closed  bool
	nextID  int
	jobs    map[string]*jobState
	order   []string     // job ids in submission order, for listing
	reorder ReorderStats // lifetime reordering aggregates for /v1/stats
}

// jobState tracks one submission from POST to result retrieval.
type jobState struct {
	id      string
	name    string
	hash    string
	cached  bool
	created time.Time

	handle *batch.Handle // nil for cache hits

	// events buffers the job's simulation event stream for
	// GET /v1/jobs/{id}/events; always non-nil (cache hits get a
	// pre-closed buffer holding just the terminal status event).
	events *eventBuffer

	// done flips once the job reaches a terminal state (set after status
	// below); the registry's eviction scan reads it without taking mu.
	done atomic.Bool

	mu      sync.Mutex
	status  string // terminal status; "" while queued/running
	errMsg  string
	payload []byte // marshaled ResultPayload when status == done
}

// New returns a running Server (its worker pool is live immediately).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		pool: batch.NewPool(batch.PoolOptions{
			Workers:    cfg.Workers,
			QueueDepth: cfg.QueueDepth,
		}),
		cache: newResultCache(cfg.CacheEntries),
		memo:  NewBodyMemo(cfg.CacheEntries),
		jobs:  make(map[string]*jobState),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux = mux
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops accepting submissions and drains queued and running jobs.
// When ctx expires first, the remaining jobs are canceled and Shutdown
// returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.pool.Shutdown(ctx)
}

// JobStatus is the API's per-job envelope.
type JobStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Status string `json:"status"`
	// Cached marks submissions answered from the result cache.
	Cached bool `json:"cached"`
	// Hash is the submission's content address (sha256, hex).
	Hash      string `json:"hash"`
	Submitted string `json:"submitted_at"`
	Error     string `json:"error,omitempty"`
	// Result is present once Status is "done".
	Result json.RawMessage `json:"result,omitempty"`
}

// RoundPayload is one approximation round in a result.
type RoundPayload struct {
	GateIndex  int     `json:"gate_index"`
	SizeBefore int     `json:"size_before"`
	SizeAfter  int     `json:"size_after"`
	Achieved   float64 `json:"achieved_fidelity"`
	// RemovedNodes counts nodes whose subtrees were zeroed (delete-based
	// rounds); ReplacedNodes counts nodes swapped for cheaper substitutes
	// (strategy=replace). A replace round can report both when the delete
	// fallback finished the job.
	RemovedNodes  int `json:"removed_nodes"`
	ReplacedNodes int `json:"replaced_nodes,omitempty"`
}

// ResultPayload is the JSON body of a finished job.
type ResultPayload struct {
	NumQubits int    `json:"num_qubits"`
	GateCount int    `json:"gate_count"`
	Strategy  string `json:"strategy"`
	// ResolvedStrategy and ResolvedStrategyParams are the registry name and
	// JSON parameters the job actually ran under — for strategy=auto
	// submissions, the atlas winner that was installed. They are set for
	// every job (auto or explicit), so an auto submission's payload stays
	// byte-identical to an explicit submission of the same configuration.
	ResolvedStrategy       string          `json:"resolved_strategy"`
	ResolvedStrategyParams json.RawMessage `json:"resolved_strategy_params,omitempty"`
	// Backend is the state representation the job ran on ("statevector"
	// or "density").
	Backend string `json:"backend"`
	// Noise and NoiseParams echo the resolved noise channel (canonical
	// parameter spelling); absent on noiseless jobs.
	Noise       string             `json:"noise,omitempty"`
	NoiseParams map[string]float64 `json:"noise_params,omitempty"`
	// Purity is Tr(ρ²) of the final density matrix (density backend only):
	// 1 for pure states, 1/2^n for the maximally mixed state.
	Purity float64 `json:"purity,omitempty"`
	// ChannelApplications counts noise-channel applications: every exact
	// superoperator application on the density backend, only sampled
	// non-identity Kraus branches (quantum jumps) on a trajectory.
	ChannelApplications int            `json:"channel_applications,omitempty"`
	Seed                int64          `json:"seed"`
	MaxDDSize           int            `json:"max_dd_size"`
	FinalDDSize         int            `json:"final_dd_size"`
	EstimatedFidelity   float64        `json:"estimated_fidelity"`
	FidelityBound       float64        `json:"fidelity_bound"`
	Rounds              []RoundPayload `json:"rounds,omitempty"`
	// Samples maps basis-state bitstrings (qubit n−1 ... qubit 0) to
	// counts; present when the submission requested shots.
	Samples map[string]int `json:"samples,omitempty"`
	// RuntimeMS is the simulation wall-clock time. On cache hits the
	// original run's value is returned (the payload is byte-identical).
	RuntimeMS float64 `json:"runtime_ms"`
	DD        DDStats `json:"dd"`
	// InitialOrder and FinalOrder are the qubit→level variable orders the
	// run started and ended under; present only when the job ran a
	// reordering strategy. They differ only when dynamic sifting ran.
	InitialOrder []int `json:"initial_order,omitempty"`
	FinalOrder   []int `json:"final_order,omitempty"`
	// SiftPasses and SiftSwaps count dynamic reordering passes and their
	// adjacent-level swaps.
	SiftPasses int `json:"sift_passes,omitempty"`
	SiftSwaps  int `json:"sift_swaps,omitempty"`
}

// DDStats is the subset of dd.Stats surfaced per result.
type DDStats struct {
	VNodesCreated uint64 `json:"v_nodes_created"`
	MNodesCreated uint64 `json:"m_nodes_created"`
	NodesRecycled uint64 `json:"nodes_recycled"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Cleanups      uint64 `json:"cleanups"`
	ComplexValues int    `json:"complex_values"`
}

// ReorderStats aggregates variable-reordering activity across finished jobs
// for /v1/stats.
type ReorderStats struct {
	// Jobs counts finished jobs that ran under a reordering strategy.
	Jobs int64 `json:"jobs"`
	// SiftPasses and SiftSwaps total the dynamic passes and adjacent-level
	// swaps those jobs performed.
	SiftPasses int64 `json:"sift_passes"`
	SiftSwaps  int64 `json:"sift_swaps"`
}

// Stats is the /v1/stats body.
type Stats struct {
	// Jobs counts registered jobs by status (cache hits count as done).
	Jobs map[string]int `json:"jobs"`
	// Cache reports result-cache hits/misses/evictions and occupancy.
	Cache CacheStats `json:"cache"`
	// Pool reports worker-pool occupancy and lifetime throughput.
	Pool batch.PoolState `json:"pool"`
	// Reorder aggregates variable-reordering activity (jobs that ran a
	// reordering strategy, sifting passes, level swaps).
	Reorder ReorderStats `json:"reorder"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding submission: %w", err))
		return
	}
	// A body resolved before skips decoding, parsing and hashing: the memo
	// holds its content hash and name.
	key := sha256.Sum256(body)
	res, memoHit := s.memo.Get(key)
	var comp *compiled
	if !memoHit {
		if comp, err = s.compileBody(body); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		res = MemoEntry{Hash: comp.hash, Name: comp.req.Name}
		s.memo.Put(key, res)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		WriteError(w, http.StatusServiceUnavailable,
			fmt.Errorf("server shutting down: %w", batch.ErrShutdown))
		return
	}
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.mu.Unlock()

	// Content-addressed fast path: identical submissions (by circuit and
	// result-relevant options) are answered from the cache without
	// touching the pool.
	if payload, ok := s.cache.get(res.Hash); ok {
		s.answerCached(w, id, res, payload)
		return
	}
	if comp == nil {
		// A memo hit whose result was evicted runs again; compiling the
		// same bytes cannot fail where it succeeded before.
		if comp, err = s.compileBody(body); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
	}

	js := &jobState{
		id: id, name: res.Name, hash: res.Hash, created: time.Now(),
		events: newEventBuffer(s.cfg.EventBufferSize),
	}
	job := batch.Job{
		Name:     res.Name,
		Circuit:  comp.circuit,
		Options:  comp.opts,
		Observer: jobObserver{buf: js.events},
		Timeout:  comp.timeout,
		Finalize: s.finalizer(js, comp),
	}
	handle, err := s.pool.Submit(job)
	if err != nil {
		if errors.Is(err, batch.ErrQueueFull) {
			s.writeBackpressure(w, err)
			return
		}
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	js.handle = handle
	s.register(js)
	WriteJSON(w, http.StatusAccepted, s.statusOf(js, false))
}

// compileBody decodes and compiles a submission body.
func (s *Server) compileBody(body []byte) (*compiled, error) {
	req, err := DecodeRequest(body)
	if err != nil {
		return nil, err
	}
	return s.compile(req)
}

// answerCached registers a submission answered from the result cache and
// writes its status, result attached.
func (s *Server) answerCached(w http.ResponseWriter, id string, res MemoEntry, payload []byte) {
	js := &jobState{
		id: id, name: res.Name, hash: res.Hash, cached: true,
		created: time.Now(), status: StatusDone, payload: payload,
		events: newEventBuffer(1),
	}
	// Cache hits never ran, so their stream is just the terminal event:
	// a one-slot ring keeps a full registry of them cheap.
	js.events.close(Event{Type: EventStatus, Status: StatusDone})
	js.done.Store(true)
	s.register(js)
	writeStatus(w, http.StatusOK, s.statusOf(js, true))
}

// finalizer builds the batch.Job Finalize hook: it runs on the worker while
// the job's DD manager is still exclusively owned, samples the final state,
// marshals the result payload, stores it on the job, feeds the cache, and
// adds the job's reordering activity to /v1/stats.
func (s *Server) finalizer(js *jobState, comp *compiled) func(*batch.JobResult) {
	return func(jr *batch.JobResult) {
		status, errMsg := classify(jr)
		var payload []byte
		if status == StatusDone {
			p := buildPayload(jr, comp)
			var err error
			if payload, err = json.Marshal(p); err != nil {
				status, errMsg = StatusFailed, fmt.Sprintf("marshaling result: %v", err)
			}
		}
		if jr.Result != nil && jr.Result.InitialOrder != nil {
			s.mu.Lock()
			s.reorder.Jobs++
			s.reorder.SiftPasses += int64(jr.Result.SiftPasses)
			s.reorder.SiftSwaps += int64(jr.Result.SiftSwaps)
			s.mu.Unlock()
		}
		// Feed the cache before publishing the done status: a client that
		// polls until done and instantly resubmits must find the entry.
		if status == StatusDone {
			s.cache.put(js.hash, payload)
		}
		js.mu.Lock()
		js.status, js.errMsg, js.payload = status, errMsg, payload
		js.mu.Unlock()
		js.done.Store(true)
		// Terminate the event stream last, once the result is readable:
		// a client that sees the terminal event can immediately fetch it.
		js.events.close(Event{Type: EventStatus, Status: status, Error: errMsg})
	}
}

func buildPayload(jr *batch.JobResult, comp *compiled) ResultPayload {
	res := jr.Result
	p := ResultPayload{
		NumQubits:              res.NumQubits,
		GateCount:              res.GateCount,
		Strategy:               res.StrategyName,
		ResolvedStrategy:       comp.req.Strategy,
		ResolvedStrategyParams: comp.req.StrategyParams,
		Backend:                string(res.Backend),
		Noise:                  comp.req.Noise,
		NoiseParams:            comp.req.NoiseParams,
		ChannelApplications:    res.ChannelApplications,
		Seed:                   comp.opts.MeasurementSeed,
		MaxDDSize:              res.MaxDDSize,
		FinalDDSize:            res.FinalDDSize,
		EstimatedFidelity:      res.EstimatedFidelity,
		FidelityBound:          res.FidelityBound,
		RuntimeMS:              float64(res.Runtime) / float64(time.Millisecond),
		DD: DDStats{
			VNodesCreated: res.DDStats.VNodesCreated,
			MNodesCreated: res.DDStats.MNodesCreated,
			NodesRecycled: res.DDStats.VNodesRecycled + res.DDStats.MNodesRecycled,
			CacheHits:     res.DDStats.CacheHits,
			CacheMisses:   res.DDStats.CacheMisses,
			Cleanups:      res.DDStats.Cleanups,
			ComplexValues: res.DDStats.ComplexValues,
		},
		InitialOrder: res.InitialOrder,
		FinalOrder:   res.FinalOrder,
		SiftPasses:   res.SiftPasses,
		SiftSwaps:    res.SiftSwaps,
	}
	if res.Density != nil {
		p.Purity = res.Purity
	}
	for _, r := range res.Rounds {
		p.Rounds = append(p.Rounds, roundPayload(r))
	}
	if shots := comp.req.Shots; shots > 0 {
		// Safe here (and only here): the pool drops the final state once
		// Finalize returns.
		hist := res.Sample(shots, rand.New(rand.NewSource(comp.opts.MeasurementSeed)))
		p.Samples = make(map[string]int, len(hist))
		for idx, count := range hist {
			p.Samples[fmt.Sprintf("%0*b", res.NumQubits, idx)] = count
		}
	}
	return p
}

// classify maps a pool job outcome to an API status.
func classify(jr *batch.JobResult) (status, errMsg string) {
	switch {
	case jr.Err == nil:
		return StatusDone, ""
	case errors.Is(jr.Err, sim.ErrDeadlineExceeded):
		return StatusDeadline, jr.Err.Error()
	case jr.Canceled():
		return StatusCanceled, jr.Err.Error()
	default:
		return StatusFailed, jr.Err.Error()
	}
}

func (s *Server) register(js *jobState) {
	s.mu.Lock()
	s.jobs[js.id] = js
	s.order = append(s.order, js.id)
	// Bound the registry: evict finished jobs from the old end beyond
	// MaxJobs — amortized O(1) per submission. Eviction pauses while the
	// oldest retained job is still in flight (its handle is live); since
	// at most QueueDepth+Workers jobs are ever unfinished, the registry
	// exceeds the bound only until that job terminates.
	if max := s.cfg.MaxJobs; max > 0 {
		for len(s.order) > max {
			head := s.jobs[s.order[0]]
			if head != nil && !head.done.Load() {
				break
			}
			delete(s.jobs, s.order[0])
			s.order = s.order[1:]
		}
		// Re-slicing leaves evicted ids in the backing array; compact
		// occasionally so it cannot grow without bound.
		if cap(s.order) > 2*max && cap(s.order) > 2*len(s.order) {
			s.order = append(make([]string, 0, len(s.order)), s.order...)
		}
	}
	s.mu.Unlock()
}

func (s *Server) job(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// statusOf renders a job's current state. includeResult attaches the result
// payload for finished jobs.
func (s *Server) statusOf(js *jobState, includeResult bool) JobStatus {
	js.mu.Lock()
	defer js.mu.Unlock()
	st := JobStatus{
		ID:        js.id,
		Name:      js.name,
		Cached:    js.cached,
		Hash:      js.hash,
		Submitted: js.created.UTC().Format(time.RFC3339Nano),
		Error:     js.errMsg,
	}
	switch {
	case js.status != "":
		st.Status = js.status
	case js.handle != nil && js.handle.Started():
		st.Status = StatusRunning
	default:
		st.Status = StatusQueued
	}
	if includeResult && st.Status == StatusDone {
		st.Result = json.RawMessage(js.payload)
	}
	return st
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if js := s.job(id); js != nil {
			out = append(out, s.statusOf(js, false))
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	js := s.job(r.PathValue("id"))
	if js == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeStatus(w, http.StatusOK, s.statusOf(js, true))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	js := s.job(r.PathValue("id"))
	if js == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	js.mu.Lock()
	status, payload, errMsg := js.status, js.payload, js.errMsg
	js.mu.Unlock()
	switch status {
	case StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.WriteHeader(http.StatusOK)
		w.Write(payload)
	case "":
		WriteError(w, http.StatusConflict, errors.New("job has not finished"))
	default:
		WriteJSON(w, http.StatusConflict, map[string]string{"status": status, "error": errMsg})
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	js := s.job(r.PathValue("id"))
	if js == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if js.handle != nil && !js.done.Load() {
		js.handle.Cancel(context.Canceled)
	}
	// The response reports the job's current (possibly still running)
	// status rather than asserting "canceled": a job on its last gate may
	// legitimately finish before it observes the cancellation, and this
	// endpoint never claims a terminal state that did not happen. Poll
	// until the status is terminal to learn the outcome.
	WriteJSON(w, http.StatusOK, s.statusOf(js, false))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Jobs:  map[string]int{},
		Cache: s.cache.stats(),
		Pool:  s.pool.State(),
	}
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	st.Reorder = s.reorder
	s.mu.Unlock()
	for _, id := range ids {
		if js := s.job(id); js != nil {
			st.Jobs[s.statusOf(js, false).Status]++
		}
	}
	st.Jobs["total"] = len(ids)
	WriteJSON(w, http.StatusOK, st)
}

// Serve listens on addr and serves the API until ctx is canceled, then
// shuts the HTTP listener and the worker pool down gracefully, bounded by
// grace (0 means wait for in-flight jobs indefinitely).
func Serve(ctx context.Context, addr string, cfg Config, grace time.Duration) error {
	s := New(cfg)
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		// Listen failed (e.g. address in use): tear the worker pool down
		// too, or every failed Serve call would leak its workers.
		s.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	shutdownCtx := context.Background()
	if grace > 0 {
		var cancel context.CancelFunc
		shutdownCtx, cancel = context.WithTimeout(shutdownCtx, grace)
		defer cancel()
	}
	httpErr := hs.Shutdown(shutdownCtx)
	poolErr := s.Shutdown(shutdownCtx)
	if httpErr != nil {
		return httpErr
	}
	if poolErr != nil && !errors.Is(poolErr, context.DeadlineExceeded) {
		return poolErr
	}
	return nil
}

// writeBackpressure renders a queue-full rejection as a retriable 503 whose
// queue_depth field reports the backlog, so routers and clients can back off
// proportionally to it instead of hammering a saturated backend.
func (s *Server) writeBackpressure(w http.ResponseWriter, err error) {
	st := s.pool.State()
	WriteRetriable(w, err, retryAfterEstimate(st), map[string]any{"queue_depth": st.Queued})
}

// retryAfterEstimate projects how long the backlog should take to drain: a
// retried submission has about (queued/workers + 1) service times ahead of
// it, each costing the pool's lifetime average busy time per finished job.
// Clamped to [100ms, 30s]; with no service history the floor applies.
func retryAfterEstimate(st batch.PoolState) time.Duration {
	var busy time.Duration
	jobs := 0
	for _, w := range st.PerWorker {
		busy += w.Busy
		jobs += w.Jobs
	}
	avg := time.Duration(0)
	if jobs > 0 {
		avg = busy / time.Duration(jobs)
	}
	workers := st.Workers
	if workers < 1 {
		workers = 1
	}
	d := avg * time.Duration(st.Queued/workers+1)
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// retryAfterSeconds rounds a backoff up to whole seconds for the Retry-After
// header (minimum 1: zero means "now", which defeats the point).
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// WriteJSON writes v as a JSON response with status code. simd and
// simd-router answer through it and the two envelope writers below.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeStatus writes the bytes WriteJSON would without copying the stored
// payload: it encodes st without Result, then writes that head, the
// payload (json.Marshal output, which the encoder would only re-validate)
// as the last field, and the closing "}\n".
func writeStatus(w http.ResponseWriter, code int, st JobStatus) {
	result := st.Result
	if len(result) == 0 {
		WriteJSON(w, code, st)
		return
	}
	st.Result = nil
	head, _ := json.Marshal(st) // strings and a bool: cannot fail
	head = append(head[:len(head)-1], `,"result":`...)
	const tail = "}\n"
	w.Header().Set("Content-Type", "application/json")
	// A declared length spares a body past net/http's 2 KiB buffer the
	// chunked encoding, and lets the reader size its buffer once.
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(result)+len(tail)))
	w.WriteHeader(code)
	w.Write(head)
	w.Write(result)
	io.WriteString(w, tail)
}

// WriteError writes the error envelope ({"error": ..., "code": ...}) that
// client.APIError decodes; "code" is set when err wraps a batch sentinel.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, envelope(err, nil))
}

// WriteRetriable writes a retriable 503: a Retry-After header (whole
// seconds, the HTTP-standard knob) and an error envelope carrying the
// precise backoff as retry_after_ms, plus the extra fields. An explicit
// "code" in extra wins over the one err implies.
func WriteRetriable(w http.ResponseWriter, err error, retry time.Duration, extra map[string]any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
	body := envelope(err, extra)
	body["retry_after_ms"] = retry.Milliseconds()
	WriteJSON(w, http.StatusServiceUnavailable, body)
}

func envelope(err error, extra map[string]any) map[string]any {
	body := map[string]any{"error": err.Error()}
	if c := errorCode(err); c != "" {
		body["code"] = c
	}
	maps.Copy(body, extra)
	return body
}
