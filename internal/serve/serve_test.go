package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/qasm"
)

const ghzQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
`

// slowGates returns an inline request body for a circuit slow enough that
// cancellation and deadline paths are exercised deterministically (the
// simulator checks both between gates).
func slowGates() JobRequest {
	c := gen.RandomCliffordT(14, 100000, 1)
	req := JobRequest{Name: "slow", Qubits: 14}
	for _, g := range c.Gates() {
		gs := GateSpec{Name: g.Name, Params: g.Params, Target: g.Target}
		for _, ctl := range g.Controls {
			if ctl.Positive {
				gs.Controls = append(gs.Controls, ctl.Qubit)
			} else {
				gs.NegControls = append(gs.NegControls, ctl.Qubit)
			}
		}
		req.Gates = append(req.Gates, gs)
	}
	return req
}

type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func newTestServer(t *testing.T, cfg Config) (*Server, *client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, &client{t: t, base: hs.URL, http: hs.Client()}
}

func (c *client) do(method, path string, body any) (int, []byte) {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func (c *client) submit(req JobRequest, wantCode int) JobStatus {
	c.t.Helper()
	code, body := c.do("POST", "/v1/jobs", req)
	if code != wantCode {
		c.t.Fatalf("submit: HTTP %d (want %d): %s", code, wantCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		c.t.Fatalf("submit response: %v: %s", err, body)
	}
	return st
}

// await polls the job until it leaves the queued/running states.
func (c *client) await(id string) JobStatus {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := c.do("GET", "/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			c.t.Fatalf("status: HTTP %d: %s", code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			c.t.Fatal(err)
		}
		if st.Status != StatusQueued && st.Status != StatusRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func (c *client) stats() Stats {
	c.t.Helper()
	code, body := c.do("GET", "/v1/stats", nil)
	if code != http.StatusOK {
		c.t.Fatalf("stats: HTTP %d: %s", code, body)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

// TestCacheHitEndToEnd is the acceptance path: the same QASM circuit
// submitted twice with identical options — the second response must be a
// cache hit with byte-identical results, verified via /v1/stats counters.
func TestCacheHitEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	req := JobRequest{
		Name: "ghz4", QASM: ghzQASM,
		Strategy: StrategyFidelity, StrategyParams: json.RawMessage(`{"final_fidelity":0.8,"round_fidelity":0.9}`),
		Shots: 256,
	}
	first := c.submit(req, http.StatusAccepted)
	if first.Cached {
		t.Fatal("first submission must not be a cache hit")
	}
	done := c.await(first.ID)
	if done.Status != StatusDone {
		t.Fatalf("first job: %+v", done)
	}
	code, res1 := c.do("GET", "/v1/jobs/"+first.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, res1)
	}

	second := c.submit(req, http.StatusOK)
	if !second.Cached || second.Status != StatusDone {
		t.Fatalf("second submission should be a finished cache hit: %+v", second)
	}
	if second.ID == first.ID {
		t.Error("cache hits must still mint a fresh job id")
	}
	if second.Hash != first.Hash {
		t.Errorf("content hashes differ: %s vs %s", first.Hash, second.Hash)
	}
	code, res2 := c.do("GET", "/v1/jobs/"+second.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("cached result: HTTP %d: %s", code, res2)
	}
	if !bytes.Equal(res1, res2) {
		t.Errorf("cache hit is not byte-identical:\n%s\nvs\n%s", res1, res2)
	}

	st := c.stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache counters: hits=%d misses=%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Jobs[StatusDone] != 2 || st.Jobs["total"] != 2 {
		t.Errorf("job counters: %+v", st.Jobs)
	}

	var payload ResultPayload
	if err := json.Unmarshal(res1, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.NumQubits != 4 || payload.Strategy != "fidelity-driven" {
		t.Errorf("payload: %+v", payload)
	}
	total := 0
	for bits, n := range payload.Samples {
		if bits != "0000" && bits != "1111" {
			t.Errorf("GHZ sample %q", bits)
		}
		total += n
	}
	if total != 256 {
		t.Errorf("sample total %d, want 256", total)
	}
}

// TestInlineAndQASMShareCache checks content addressing across submission
// formats: the same circuit as inline gates and as QASM text must collide.
func TestInlineAndQASMShareCache(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	inline := JobRequest{
		Name: "bell-inline", Qubits: 2,
		Gates: []GateSpec{
			{Name: "h", Target: 0},
			{Name: "x", Target: 1, Controls: []int{0}},
		},
		Shots: 64, Seed: 7,
	}
	viaQASM := JobRequest{
		Name:  "bell-qasm",
		QASM:  "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
		Shots: 64, Seed: 7,
	}
	a := c.submit(inline, http.StatusAccepted)
	if st := c.await(a.ID); st.Status != StatusDone {
		t.Fatalf("inline job: %+v", st)
	}
	b := c.submit(viaQASM, http.StatusOK)
	if !b.Cached {
		t.Fatalf("QASM form of the same circuit should hit the inline form's cache entry (hashes %s vs %s)", a.Hash, b.Hash)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	slow := slowGates()
	running := c.submit(slow, http.StatusAccepted)
	// Distinct seed → distinct hash → no cache/dedup interference.
	slow2 := slow
	slow2.Seed = 99
	queued := c.submit(slow2, http.StatusAccepted)

	// Cancel the queued job first: it must end canceled without ever
	// running. The acknowledgment arrives when the (currently busy) worker
	// pops it from the queue, so it is awaited after the running job is
	// canceled below.
	code, _ := c.do("DELETE", "/v1/jobs/"+queued.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", code)
	}

	// Wait for the head job to actually start, then cancel it mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := c.do("GET", "/v1/jobs/"+running.ID, nil)
		if code != http.StatusOK {
			t.Fatalf("status: HTTP %d", code)
		}
		var st JobStatus
		json.Unmarshal(body, &st)
		if st.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := c.do("DELETE", "/v1/jobs/"+running.ID, nil); code != http.StatusOK {
		t.Fatalf("cancel running: HTTP %d", code)
	}
	st := c.await(running.ID)
	if st.Status != StatusCanceled {
		t.Fatalf("running job after cancel: %+v", st)
	}
	// The status flips to canceled when the worker acknowledges the
	// cancellation; the error message lands at the same time (the loop
	// below only guards against scheduling delay).
	ackDeadline := time.Now().Add(10 * time.Second)
	for st.Error == "" && time.Now().Before(ackDeadline) {
		time.Sleep(5 * time.Millisecond)
		code, body := c.do("GET", "/v1/jobs/"+running.ID, nil)
		if code != http.StatusOK {
			t.Fatalf("status: HTTP %d", code)
		}
		json.Unmarshal(body, &st)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Errorf("cancel error message: %q", st.Error)
	}
	// With the worker free, the canceled queued job is acknowledged: it
	// ends canceled without ever having run.
	if st := c.await(queued.ID); st.Status != StatusCanceled {
		t.Fatalf("queued job after cancel: %+v", st)
	}
	// Canceled jobs must not enter the result cache.
	if got := c.stats(); got.Cache.Entries != 0 {
		t.Errorf("canceled jobs leaked into the cache: %+v", got.Cache)
	}
	// And their result endpoint reports the terminal state, not a payload.
	if code, body := c.do("GET", "/v1/jobs/"+running.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of canceled job: HTTP %d: %s", code, body)
	}
}

func TestDeadlinePath(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := slowGates()
	req.TimeoutMS = 30
	st := c.submit(req, http.StatusAccepted)
	final := c.await(st.ID)
	if final.Status != StatusDeadline {
		t.Fatalf("status %q, want %q (err %q)", final.Status, StatusDeadline, final.Error)
	}
	if !strings.Contains(final.Error, "deadline exceeded") {
		t.Errorf("deadline error message: %q", final.Error)
	}
}

func TestServerDefaultDeadline(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, DefaultJobTimeout: 30 * time.Millisecond})
	st := c.submit(slowGates(), http.StatusAccepted)
	if final := c.await(st.ID); final.Status != StatusDeadline {
		t.Fatalf("status %q, want server-default deadline to apply", final.Status)
	}
}

func TestValidationErrors(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxQubits: 8, MaxShots: 10})
	cases := []JobRequest{
		{}, // no circuit
		{QASM: ghzQASM, Qubits: 2, Gates: []GateSpec{{Name: "h"}}}, // both forms
		{QASM: "OPENQASM 9;"}, // parse error
		{Qubits: 2, Gates: []GateSpec{{Name: "warp", Target: 0}}}, // unknown gate
		{Qubits: 2, Gates: []GateSpec{{Name: "h", Target: 5}}},    // qubit range
		{QASM: ghzQASM, Strategy: "psychic"},                      // unknown strategy
		{QASM: ghzQASM, Strategy: StrategyMemory, StrategyParams: json.RawMessage(`{"threshold":-1,"round_fidelity":0.9}`)},
		{QASM: ghzQASM, Strategy: StrategyFidelity, StrategyParams: json.RawMessage(`{"final_fidelity":0.9,"round_fidelity":0.5}`)},
		{QASM: ghzQASM, Shots: 11},                             // above MaxShots
		{Qubits: 9, Gates: []GateSpec{{Name: "h", Target: 0}}}, // above MaxQubits
		{Qubits: 2, Gates: []GateSpec{{Name: "h", Target: 0}}, Blocks: []int{3}},
	}
	for i, req := range cases {
		if code, body := c.do("POST", "/v1/jobs", req); code != http.StatusBadRequest {
			t.Errorf("case %d: HTTP %d (want 400): %s", i, code, body)
		}
	}
	// Unknown fields are rejected too (catches misspelled options that
	// would otherwise silently change what the cache key means).
	code, _ := c.do("POST", "/v1/jobs", map[string]any{"qasm": ghzQASM, "sots": 5})
	if code != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", code)
	}
	// Strategy parameters travel only in strategy_params; a flat field
	// such as threshold is an unknown field.
	code, _ = c.do("POST", "/v1/jobs", map[string]any{"qasm": ghzQASM, "strategy": "memory", "threshold": 16})
	if code != http.StatusBadRequest {
		t.Errorf("flat strategy field: HTTP %d, want 400", code)
	}
	if code, _ := c.do("GET", "/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Error("unknown job id should 404")
	}
}

func TestQueueFullReturns503(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := slowGates()
	first := c.submit(slow, http.StatusAccepted)
	// Wait for the worker to pick the head job up so the queue is empty,
	// then fill the single queue slot and overflow it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := c.do("GET", "/v1/jobs/"+first.ID, nil)
		var st JobStatus
		if code == http.StatusOK {
			json.Unmarshal(body, &st)
		}
		if st.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("head job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	q := slow
	q.Seed = 2
	c.submit(q, http.StatusAccepted)
	over := slow
	over.Seed = 3
	raw, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("overflow body: %s", body)
	}
	// The rejection is retriable: a Retry-After header (whole seconds) plus
	// the precise backoff and current backlog in the envelope, so routers
	// and clients can back off proportionally.
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After header %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	// The envelope carries a machine-readable code alongside the message so
	// clients can map the failure back to a typed sentinel.
	var env struct {
		Code         string `json:"code"`
		QueueDepth   int    `json:"queue_depth"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("overflow body not JSON: %s", body)
	}
	if env.Code != CodeQueueFull {
		t.Errorf("overflow code %q, want %q", env.Code, CodeQueueFull)
	}
	if env.QueueDepth != 1 {
		t.Errorf("queue_depth %d, want 1 (the one queued job)", env.QueueDepth)
	}
	if env.RetryAfterMS < 100 {
		t.Errorf("retry_after_ms %d, want >= the 100ms floor", env.RetryAfterMS)
	}
}

func TestListAndStatsShapes(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	for i := 0; i < 3; i++ {
		req := JobRequest{QASM: ghzQASM, Seed: int64(i + 1), Shots: 4}
		st := c.submit(req, http.StatusAccepted)
		c.await(st.ID)
	}
	code, body := c.do("GET", "/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list.Jobs))
	}
	for i, js := range list.Jobs {
		if js.ID != fmt.Sprintf("job-%06d", i+1) {
			t.Errorf("job %d id %q: listing must preserve submission order", i, js.ID)
		}
		if js.Result != nil {
			t.Error("listing must not attach result payloads")
		}
	}
	st := c.stats()
	if st.Pool.Workers != 2 {
		t.Errorf("pool workers %d, want 2", st.Pool.Workers)
	}
	if st.Pool.Finished != 3 {
		t.Errorf("pool finished %d, want 3", st.Pool.Finished)
	}
	if st.Pool.Uptime <= 0 {
		t.Error("stats should report pool uptime")
	}
	if len(st.Pool.PerWorker) != 2 {
		t.Fatalf("stats carry %d per-worker pool entries, want 2", len(st.Pool.PerWorker))
	}
	perWorkerJobs := 0
	for w, ws := range st.Pool.PerWorker {
		perWorkerJobs += ws.Jobs
		if ws.Jobs > 0 && (ws.Busy <= 0 || ws.Utilization <= 0) {
			t.Errorf("worker %d ran %d jobs with busy=%v utilization=%v",
				w, ws.Jobs, ws.Busy, ws.Utilization)
		}
	}
	if perWorkerJobs != 3 {
		t.Errorf("per-worker jobs sum to %d, want 3", perWorkerJobs)
	}
	if len(st.Workers) == 0 {
		t.Error("stats should carry at least one per-worker DD snapshot")
	}
	for id, w := range st.Workers {
		if w.Stats.VNodesCreated == 0 || w.Pool.Capacity == 0 {
			t.Errorf("worker %s DD snapshot looks empty: %+v", id, w)
		}
	}
}

func TestShutdownCancelsPendingJobs(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	running := c.submit(slowGates(), http.StatusAccepted)
	q := slowGates()
	q.Seed = 5
	queued := c.submit(q, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("expected Shutdown to report the expired grace period")
	}
	for _, id := range []string{running.ID, queued.ID} {
		st := c.await(id)
		if st.Status != StatusCanceled {
			t.Errorf("job %s after shutdown: %+v", id, st)
		}
	}
	if code, body := c.do("POST", "/v1/jobs", JobRequest{QASM: ghzQASM}); code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: HTTP %d: %s", code, body)
	}
}

func TestDerivedSeedIsStableAcrossEviction(t *testing.T) {
	// Capacity 1: the second distinct submission evicts the first, so the
	// third (repeating the first) recomputes — and must reproduce the same
	// samples because seedless jobs derive their seed from the content hash.
	_, c := newTestServer(t, Config{Workers: 1, CacheEntries: 1})
	req := JobRequest{QASM: ghzQASM, Shots: 128}
	first := c.submit(req, http.StatusAccepted)
	c.await(first.ID)
	_, res1 := c.do("GET", "/v1/jobs/"+first.ID+"/result", nil)

	other := JobRequest{QASM: ghzQASM, Shots: 128, Seed: 42}
	o := c.submit(other, http.StatusAccepted)
	c.await(o.ID)

	third := c.submit(req, http.StatusAccepted)
	if third.Cached {
		t.Fatal("entry should have been evicted (capacity 1)")
	}
	done := c.await(third.ID)
	if done.Status != StatusDone {
		t.Fatalf("recomputed job: %+v", done)
	}
	_, res3 := c.do("GET", "/v1/jobs/"+third.ID+"/result", nil)
	var p1, p3 ResultPayload
	if err := json.Unmarshal(res1, &p1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(res3, &p3); err != nil {
		t.Fatal(err)
	}
	if p1.Seed != p3.Seed {
		t.Errorf("derived seeds differ across eviction: %d vs %d", p1.Seed, p3.Seed)
	}
	if fmt.Sprint(p1.Samples) != fmt.Sprint(p3.Samples) {
		t.Errorf("samples differ across eviction:\n%v\nvs\n%v", p1.Samples, p3.Samples)
	}
	st := c.stats()
	if st.Cache.Evictions == 0 {
		t.Errorf("expected at least one eviction: %+v", st.Cache)
	}
}

// TestJobRegistryBounded submits more jobs than MaxJobs retains and checks
// the oldest finished ones are evicted while newer ones stay addressable.
func TestJobRegistryBounded(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxJobs: 3, CacheEntries: -1})
	var ids []string
	for i := 0; i < 5; i++ {
		st := c.submit(JobRequest{QASM: ghzQASM, Seed: int64(i + 1)}, http.StatusAccepted)
		c.await(st.ID)
		ids = append(ids, st.ID)
	}
	for _, id := range ids[:2] {
		if code, _ := c.do("GET", "/v1/jobs/"+id, nil); code != http.StatusNotFound {
			t.Errorf("evicted job %s still addressable (HTTP %d)", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code, _ := c.do("GET", "/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Errorf("retained job %s lost (HTTP %d)", id, code)
		}
	}
	if st := c.stats(); st.Jobs["total"] != 3 {
		t.Errorf("registry retained %d jobs, want 3", st.Jobs["total"])
	}
}

// TestServeReleasesPoolOnListenFailure binds the same address twice: the
// second Serve must fail fast without leaking its worker pool.
func TestServeReleasesPoolOnListenFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		err := Serve(context.Background(), "256.256.256.256:0", Config{Workers: 4}, time.Second)
		if err == nil {
			t.Fatal("Serve on an invalid address should fail")
		}
	}
	// Workers exit synchronously inside Serve's shutdown path; allow a
	// moment for goroutine bookkeeping to settle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines grew from %d to %d: worker pools leaked", before, g)
	}
}

// TestQASMParsesLikeLibrary pins the QASM front door to the library parser,
// so service submissions and qasm.Parse agree on the IR (and therefore on
// content hashes).
func TestQASMParsesLikeLibrary(t *testing.T) {
	prog, err := qasm.Parse(ghzQASM, "ghz")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Circuit.NumQubits != 4 || prog.Circuit.Len() != 4 {
		t.Fatalf("unexpected GHZ IR: %s", prog.Circuit)
	}
}
