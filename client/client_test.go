package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/serve"
)

const bellQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
`

// slowRequest is a circuit slow enough to still be running when the test
// inspects or cancels it (a dense random Clifford+T register builds a large
// DD and the simulator checks cancellation between gates).
func slowRequest(name string) JobRequest {
	c := gen.RandomCliffordT(14, 50000, 1)
	req := JobRequest{Name: name, Qubits: c.NumQubits}
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

func newService(t *testing.T, cfg serve.Config) *Client {
	t.Helper()
	s := serve.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return New(hs.URL)
}

func TestSubmitWaitResultRoundTrip(t *testing.T) {
	cl := newService(t, serve.Config{Workers: 1})
	ctx := t.Context()
	st, err := cl.Submit(ctx, JobRequest{Name: "ghz3", QASM: bellQASM, Shots: 32})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job ended %q: %s", final.Status, final.Error)
	}
	res, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumQubits != 3 || res.GateCount != 3 {
		t.Errorf("result shape: %+v", res)
	}
	shots := 0
	for _, n := range res.Samples {
		shots += n
	}
	if shots != 32 {
		t.Errorf("samples total %d, want 32", shots)
	}

	// An identical submission answers from the cache with status done.
	st2, err := cl.Submit(ctx, JobRequest{Name: "ghz3", QASM: bellQASM, Shots: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.Status != StatusDone {
		t.Errorf("repeat submission: cached=%v status=%q", st2.Cached, st2.Status)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits != 1 {
		t.Errorf("cache hits %d, want 1", stats.Cache.Hits)
	}
}

func TestStreamDeliversEventsAndTerminalStatus(t *testing.T) {
	cl := newService(t, serve.Config{Workers: 1, EventBufferSize: 4096})
	ctx := t.Context()
	st, err := cl.Submit(ctx, JobRequest{Name: "stream", QASM: bellQASM})
	if err != nil {
		t.Fatal(err)
	}
	var gates, finishes int
	var terminal Event
	final, err := cl.Stream(ctx, st.ID, func(e Event) error {
		switch e.Type {
		case EventGate:
			gates++
		case EventFinish:
			finishes++
		case EventStatus:
			terminal = e
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gates != 3 || finishes != 1 {
		t.Errorf("stream events: %d gates, %d finishes", gates, finishes)
	}
	if terminal.Status != StatusDone || final.Status != StatusDone {
		t.Errorf("terminal %q, final %q", terminal.Status, final.Status)
	}
	if final.Result == nil {
		t.Error("final envelope missing result")
	}
}

func TestStreamCallbackAbort(t *testing.T) {
	cl := newService(t, serve.Config{Workers: 1})
	ctx := t.Context()
	st, err := cl.Submit(ctx, JobRequest{QASM: bellQASM})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("enough")
	_, err = cl.Stream(ctx, st.ID, func(e Event) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("callback abort surfaced as %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	cl := newService(t, serve.Config{Workers: 1, QueueDepth: 8})
	ctx := t.Context()
	first, err := cl.Submit(ctx, slowRequest("holder"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(ctx, JobRequest{Name: "victim", QASM: bellQASM})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	// A queued job's terminal state publishes once a worker pops it, so
	// unblock the single worker by canceling the holder too.
	if _, err := cl.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, queued.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled && final.Status != StatusDone {
		t.Errorf("canceled job ended %q", final.Status)
	}
	holder, err := cl.Wait(ctx, first.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if holder.Status != StatusCanceled {
		t.Errorf("holder ended %q, want canceled", holder.Status)
	}
}

func TestAPIErrorsAreTyped(t *testing.T) {
	cl := newService(t, serve.Config{Workers: 1})
	ctx := t.Context()
	_, err := cl.Status(ctx, "job-999999")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("missing job error: %v", err)
	}
	if apiErr.Temporary() {
		t.Error("404 reported as temporary")
	}

	// Result of an unfinished job is a 409.
	st, err := cl.Submit(ctx, slowRequest("slow"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Result(ctx, st.ID)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Errorf("unfinished result error: %v", err)
	}
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-000001", Status: StatusQueued})
	}))
	defer backend.Close()
	cl := New(backend.URL, WithRetries(3, time.Millisecond))
	st, err := cl.Submit(t.Context(), JobRequest{QASM: bellQASM})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-000001" || calls.Load() != 3 {
		t.Errorf("retry behavior: %+v after %d calls", st, calls.Load())
	}

	// Retries are bounded: a permanently failing backend surfaces the error.
	calls.Store(-100)
	if _, err := cl.Submit(t.Context(), JobRequest{QASM: bellQASM}); err == nil {
		t.Error("unbounded retries?")
	}
}

// TestErrorCodesMapToSentinels pins the cross-boundary error contract: the
// service's machine-readable "code" field maps back to the batch package's
// typed sentinels, so errors.Is works across the HTTP boundary without
// message matching.
func TestErrorCodesMapToSentinels(t *testing.T) {
	cases := []struct {
		code   string
		status int
		want   error
	}{
		{"queue_full", http.StatusServiceUnavailable, ErrQueueFull},
		{"shutdown", http.StatusServiceUnavailable, ErrShutdown},
		{"canceled", http.StatusConflict, ErrCanceled},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				json.NewEncoder(w).Encode(map[string]string{"error": "nope", "code": tc.code})
			}))
			defer backend.Close()
			cl := New(backend.URL, WithRetries(0, 0))
			_, err := cl.Submit(t.Context(), JobRequest{QASM: bellQASM})
			if !errors.Is(err, tc.want) {
				t.Errorf("code %q: errors.Is(%v, %v) = false", tc.code, err, tc.want)
			}
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Code != tc.code {
				t.Errorf("code %q not carried on APIError: %v", tc.code, err)
			}
		})
	}
}

// TestQueueFullSentinelEndToEnd drives a real server into queue overflow and
// asserts the client classifies the refusal via the typed sentinel.
func TestQueueFullSentinelEndToEnd(t *testing.T) {
	cl := newService(t, serve.Config{Workers: 1, QueueDepth: 1})
	ctx := t.Context()
	first, err := cl.Submit(ctx, slowRequest("head"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Status(ctx, first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("head job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := cl.Submit(ctx, slowRequest("fill")); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit(ctx, slowRequest("overflow"))
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit: errors.Is(err, ErrQueueFull) = false: %v", err)
	}
}

// TestStatusBodyFraming: the client reads a response whole, then decodes
// it. A status body ending in the encoder's newline decodes, whether it
// arrives with a Content-Length or chunked; one with anything but space
// after its value is rejected, where a streaming decoder stopped reading
// after the value.
func TestStatusBodyFraming(t *testing.T) {
	samples := make(map[string]int)
	for i := range 300 { // a body past net/http's buffer goes out chunked
		samples[fmt.Sprintf("%012b", i)] = i + 1
	}
	payload, err := json.Marshal(ResultPayload{NumQubits: 12, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/jobs/small":
			json.NewEncoder(w).Encode(JobStatus{ID: "small", Status: StatusQueued})
		case "/v1/jobs/big":
			json.NewEncoder(w).Encode(JobStatus{ID: "big", Status: StatusDone, Result: payload})
		case "/v1/jobs/big/result":
			w.Write(append(payload, '\n'))
		default:
			fmt.Fprint(w, `{"id":"junk","status":"queued"} x`)
		}
	}))
	defer srv.Close()
	cl := New(srv.URL, WithRetries(0, time.Millisecond))
	ctx := t.Context()

	if st, err := cl.Status(ctx, "small"); err != nil || st.ID != "small" || st.Status != StatusQueued {
		t.Errorf("small status: %+v, %v", st, err)
	}
	st, err := cl.Status(ctx, "big")
	if err != nil || st.ID != "big" || !bytes.Equal(st.Result, payload) {
		t.Fatalf("big status: %v (result %d of %d bytes)", err, len(st.Result), len(payload))
	}
	res, err := cl.Result(ctx, "big")
	if err != nil || !reflect.DeepEqual(res.Samples, samples) {
		t.Errorf("result: %d samples, %v", len(res.Samples), err)
	}
	if st, err := cl.Status(ctx, "junk"); err == nil || !strings.Contains(err.Error(), "after top-level value") {
		t.Errorf("trailing bytes: got %+v, %v; want a decoding error", st, err)
	}
}
