package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

const clusterQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
`

// killableBackend is a real serve backend behind a kill switch: once killed,
// every new request's connection is aborted mid-flight, which a client sees
// as a transport failure — the same signature as a crashed process.
type killableBackend struct {
	hs     *httptest.Server
	srv    *serve.Server
	killed atomic.Bool
	// killAfterFrames, when positive, is an injected crash point: the
	// backend dies from inside its next event stream right after that many
	// SSE frames have been flushed to the client, so the kill lands
	// mid-stream, before the terminal event, on every run.
	killAfterFrames atomic.Int32
}

func (kb *killableBackend) kill() {
	kb.killed.Store(true)
	kb.hs.CloseClientConnections()
}

// frameKiller wraps an event stream's ResponseWriter to fire the injected
// crash point. The server writes each SSE frame with a single Write.
type frameKiller struct {
	http.ResponseWriter
	kb   *killableBackend
	left int32
}

func (f *frameKiller) Write(p []byte) (int, error) {
	if f.kb.killed.Load() {
		panic(http.ErrAbortHandler)
	}
	n, err := f.ResponseWriter.Write(p)
	if f.left--; f.left == 0 {
		f.Flush()
		f.kb.kill()
	}
	return n, err
}

func (f *frameKiller) Flush() { f.ResponseWriter.(http.Flusher).Flush() }

func startKillableBackends(t *testing.T, n int) []*killableBackend {
	t.Helper()
	var out []*killableBackend
	for i := 0; i < n; i++ {
		kb := &killableBackend{srv: serve.New(serve.Config{Workers: 1})}
		inner := kb.srv.Handler()
		kb.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if kb.killed.Load() {
				panic(http.ErrAbortHandler)
			}
			if n := kb.killAfterFrames.Load(); n > 0 && strings.HasSuffix(r.URL.Path, "/events") {
				w = &frameKiller{ResponseWriter: w, kb: kb, left: n}
			}
			inner.ServeHTTP(w, r)
		}))
		out = append(out, kb)
		t.Cleanup(func() {
			kb.hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			kb.srv.Shutdown(ctx)
			cancel()
		})
	}
	return out
}

func newTestCluster(t *testing.T, backends []*killableBackend) *Cluster {
	t.Helper()
	urls := make([]string, len(backends))
	for i, kb := range backends {
		urls[i] = kb.hs.URL
	}
	cc, err := NewCluster(urls,
		WithCooldown(time.Minute),
		WithClientOptions(WithRetries(1, time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	// Never actually sleep in tests.
	for _, cl := range cc.clients {
		cl.sleepFn = func(ctx context.Context, d time.Duration) error { return nil }
	}
	return cc
}

func TestClusterHashAffinityAndPrefixedIDs(t *testing.T) {
	backends := startKillableBackends(t, 3)
	cc := newTestCluster(t, backends)
	ctx := context.Background()

	req := JobRequest{QASM: clusterQASM, Shots: 8}
	job, err := cc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.ID(), job.Backend()+idSep) {
		t.Errorf("cluster id %q lacks backend prefix %q", job.ID(), job.Backend())
	}
	final, err := job.Wait(ctx, 0)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("wait: %v / %+v", err, final)
	}
	if !strings.HasPrefix(final.ID, job.Backend()+idSep) {
		t.Errorf("status id %q not cluster-scoped", final.ID)
	}
	if _, err := job.Result(ctx); err != nil {
		t.Fatalf("result: %v", err)
	}

	// The identical request pins to the same backend and hits its cache.
	for i := 0; i < 3; i++ {
		job2, err := cc.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if job2.Backend() != job.Backend() {
			t.Fatalf("resubmission %d routed to %q, first went to %q", i, job2.Backend(), job.Backend())
		}
		st, err := job2.Status(ctx)
		if err != nil || !st.Cached {
			t.Fatalf("resubmission %d missed the cache: %+v %v", i, st, err)
		}
	}
}

func TestClusterSubmitFailsOverToRingSuccessor(t *testing.T) {
	backends := startKillableBackends(t, 2)
	cc := newTestCluster(t, backends)
	ctx := context.Background()

	req := JobRequest{QASM: clusterQASM}
	job, err := cc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(ctx, 0); err != nil {
		t.Fatal(err)
	}
	primary := job.Backend()

	// Kill the primary; the same submission fails over to the survivor.
	for i, name := range cc.names {
		if name == primary {
			backends[i].kill()
		}
	}
	job2, err := cc.Submit(ctx, req)
	if err != nil {
		t.Fatalf("failover submit: %v", err)
	}
	if job2.Backend() == primary {
		t.Fatalf("submission still routed to dead backend %q", primary)
	}
	final, err := job2.Wait(ctx, 0)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("failover job: %v / %+v", err, final)
	}

	// The dead backend is now in cooldown: the next submission goes straight
	// to the survivor without a transport round-trip against the corpse.
	job3, err := cc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if job3.Backend() == primary {
		t.Errorf("cooldown ignored: submission routed to dead backend %q", primary)
	}
	st3, err := job3.Status(ctx)
	if err != nil || !st3.Cached {
		t.Errorf("survivor cache missed after failover: %+v %v", st3, err)
	}
}

func TestClusterStatusFailsOverWithResubmission(t *testing.T) {
	backends := startKillableBackends(t, 2)
	cc := newTestCluster(t, backends)
	ctx := context.Background()

	job, err := cc.Submit(ctx, JobRequest{QASM: clusterQASM})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(ctx, 0); err != nil {
		t.Fatal(err)
	}
	primary := job.Backend()
	for i, name := range cc.names {
		if name == primary {
			backends[i].kill()
		}
	}
	// Status against the dead owner resubmits elsewhere and answers from the
	// replacement job (recomputed — content addressing makes that safe).
	st, err := job.Status(ctx)
	if err != nil {
		t.Fatalf("status after owner death: %v", err)
	}
	if job.Backend() == primary {
		t.Errorf("handle still bound to dead backend %q", primary)
	}
	final, err := job.Wait(ctx, 0)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("post-failover wait: %v / %+v (first status %+v)", err, final, st)
	}
	if _, err := job.Result(ctx); err != nil {
		t.Fatalf("post-failover result: %v", err)
	}
}

func TestClusterStreamResumesOnFailoverTarget(t *testing.T) {
	backends := startKillableBackends(t, 2)
	cc := newTestCluster(t, backends)
	ctx := context.Background()

	req := JobRequest{Qubits: 4, Shots: 4}
	for i := 0; i < 400; i++ {
		req.Gates = append(req.Gates, GateSpec{Name: "h", Target: i % 4})
	}
	job, err := cc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	primary := job.Backend()
	// The owner dies once its stream has delivered the first event.
	for i, name := range cc.names {
		if name == primary {
			backends[i].killAfterFrames.Store(1)
		}
	}

	var events []Event
	var sawTerminal bool
	final, err := job.Stream(ctx, func(e Event) error {
		events = append(events, e)
		if e.Type == EventStatus {
			sawTerminal = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("final status %q: %s", final.Status, final.Error)
	}
	if job.Backend() == primary {
		t.Errorf("stream finished against dead backend %q", primary)
	}
	if !sawTerminal {
		t.Error("terminal status event never delivered")
	}
	if len(events) < 2 || events[0].Type == EventStatus {
		t.Fatalf("the dead owner delivered no data event before the failover (%d events)", len(events))
	}
	// Failover must not replay data events: sequence numbers of non-status
	// events are strictly increasing across the backend switch.
	last := int64(-1)
	for _, e := range events {
		if e.Type == EventStatus {
			continue
		}
		if e.Seq <= last {
			t.Fatalf("duplicate or reordered event seq %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
}

// TestClusterStreamReturnsTerminalStatusWhenOwnerDies kills the owner after
// its terminal event has arrived but before Stream returns. The job is over,
// so Stream must report the terminal status it was sent, not fail over into
// a resubmitted, non-terminal job.
func TestClusterStreamReturnsTerminalStatusWhenOwnerDies(t *testing.T) {
	backends := startKillableBackends(t, 2)
	cc := newTestCluster(t, backends)
	ctx := context.Background()

	job, err := cc.Submit(ctx, JobRequest{QASM: clusterQASM, Shots: 8})
	if err != nil {
		t.Fatal(err)
	}
	primary := job.Backend()
	final, err := job.Stream(ctx, func(e Event) error {
		if e.Type == EventStatus {
			for i, name := range cc.names {
				if name == primary {
					backends[i].kill()
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("final status %q, want %q from the terminal event", final.Status, StatusDone)
	}
	if job.Backend() != primary || !strings.HasPrefix(final.ID, primary+idSep) {
		t.Errorf("Stream resubmitted the finished job: owner %q, status id %q", job.Backend(), final.ID)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewCluster([]string{"http://x"}, WithBackendNames([]string{"a", "b"})); err == nil {
		t.Error("name/backend length mismatch accepted")
	}
	if _, err := NewCluster([]string{"http://x"}, WithBackendNames([]string{"a.b"})); err == nil {
		t.Error("dotted name accepted")
	}
	if _, err := NewCluster([]string{"http://x", "http://y"}, WithBackendNames([]string{"a", "a"})); err == nil {
		t.Error("duplicate names accepted")
	}
}
