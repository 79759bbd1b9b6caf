package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

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
	// dropAfterFrames, when positive, cuts the next event stream at the
	// same point but leaves the backend up: a dropped connection, not a
	// crash.
	dropAfterFrames atomic.Int32
}

func (kb *killableBackend) kill() {
	kb.killed.Store(true)
	kb.hs.CloseClientConnections()
}

// frameKiller wraps an event stream's ResponseWriter to fire an injected
// crash or drop point. The server writes each SSE frame with a single Write.
type frameKiller struct {
	http.ResponseWriter
	kb    *killableBackend
	left  int32
	crash func()
}

func (f *frameKiller) Write(p []byte) (int, error) {
	if f.kb.killed.Load() {
		panic(http.ErrAbortHandler)
	}
	n, err := f.ResponseWriter.Write(p)
	if f.left--; f.left == 0 {
		f.Flush()
		f.crash()
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
			if strings.HasSuffix(r.URL.Path, "/events") {
				if n := kb.killAfterFrames.Load(); n > 0 {
					w = &frameKiller{ResponseWriter: w, kb: kb, left: n, crash: kb.kill}
				} else if n := kb.dropAfterFrames.Swap(0); n > 0 {
					w = &frameKiller{ResponseWriter: w, kb: kb, left: n, crash: func() { panic(http.ErrAbortHandler) }}
				}
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

// routedCluster is a simd-router in front of n killable backends, which it
// names b0, b1, ... by index. It logs the backend that took each routed
// submission.
type routedCluster struct {
	rt       *cluster.Router
	url      string
	backends []*killableBackend
	// onSubmit, when set before any traffic, runs with the owner's name
	// after each routed submission, before the caller sees the response.
	onSubmit func(owner string)

	mu     sync.Mutex
	owners []string
}

func startRoutedCluster(t *testing.T, n int) *routedCluster {
	t.Helper()
	rc := &routedCluster{backends: startKillableBackends(t, n)}
	urls := make([]string, n)
	for i, kb := range rc.backends {
		urls[i] = kb.hs.URL
	}
	rt, err := cluster.New(cluster.Config{
		Backends:      urls,
		ProbeInterval: 15 * time.Millisecond,
		MarkDownAfter: 2,
		MarkUpAfter:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc.rt = rt
	t.Cleanup(rt.Close)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.ServeHTTP(w, r)
		owner := w.Header().Get(cluster.HeaderBackend)
		if r.Method != http.MethodPost || owner == "" {
			return
		}
		rc.mu.Lock()
		rc.owners = append(rc.owners, owner)
		rc.mu.Unlock()
		if rc.onSubmit != nil {
			rc.onSubmit(owner)
		}
	}))
	t.Cleanup(hs.Close)
	rc.url = hs.URL
	return rc
}

// submissions returns the owner of every routed submission so far, in order.
func (rc *routedCluster) submissions() []string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return slices.Clone(rc.owners)
}

func (rc *routedCluster) backend(name string) *killableBackend {
	i, _ := strconv.Atoi(strings.TrimPrefix(name, "b"))
	return rc.backends[i]
}

// runClient is a client of the router that retries without sleeping.
func (rc *routedCluster) runClient() *Client {
	cl := New(rc.url, WithRetries(2, time.Millisecond))
	cl.sleepFn = func(ctx context.Context, d time.Duration) error { return nil }
	return cl
}

// longRequest streams one gate event per gate: long enough for a crash
// point to land mid-stream, short enough for the server's event buffer to
// keep every seq.
func longRequest() JobRequest {
	req := JobRequest{Qubits: 4, Shots: 4}
	for i := 0; i < 400; i++ {
		req.Gates = append(req.Gates, GateSpec{Name: "h", Target: i % 4})
	}
	return req
}

// TestRunCompletesOnSurvivorWhenOwnerDies kills the job's owner while Run is
// waiting on it: Run resubmits once and the job completes on the survivor.
func TestRunCompletesOnSurvivorWhenOwnerDies(t *testing.T) {
	rc := startRoutedCluster(t, 2)
	var once sync.Once
	rc.onSubmit = func(owner string) {
		once.Do(func() { rc.backend(owner).killAfterFrames.Store(1) })
	}
	final, err := rc.runClient().Run(t.Context(), longRequest(), nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("final status %q: %s", final.Status, final.Error)
	}
	owners := rc.submissions()
	if len(owners) != 2 || owners[1] == owners[0] {
		t.Fatalf("submissions landed on %v, want the owner then the survivor", owners)
	}
	if !strings.HasPrefix(final.ID, owners[1]+".") {
		t.Errorf("final status %q does not come from the survivor %s", final.ID, owners[1])
	}
}

// TestRunDeliversEachSeqOnceAcrossFailover drops the owner mid-stream. The
// resubmitted job replays its events from seq 0 on the survivor; Run must
// pass each data seq to fn exactly once, then the terminal event.
func TestRunDeliversEachSeqOnceAcrossFailover(t *testing.T) {
	rc := startRoutedCluster(t, 2)
	var once sync.Once
	rc.onSubmit = func(owner string) {
		once.Do(func() { rc.backend(owner).killAfterFrames.Store(100) })
	}
	var events []Event
	final, err := rc.runClient().Run(t.Context(), longRequest(), func(e Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("final status %q: %s", final.Status, final.Error)
	}
	if owners := rc.submissions(); len(owners) != 2 {
		t.Fatalf("submissions landed on %v, want exactly one resubmission", owners)
	}
	checkEachSeqOnce(t, events)
}

// TestRunResumesADroppedStreamInPlace cuts the job's event stream while its
// owner stays up. Run resumes the stream from the last seen event and must
// not resubmit.
func TestRunResumesADroppedStreamInPlace(t *testing.T) {
	rc := startRoutedCluster(t, 2)
	var once sync.Once
	rc.onSubmit = func(owner string) {
		once.Do(func() { rc.backend(owner).dropAfterFrames.Store(100) })
	}
	var events []Event
	final, err := rc.runClient().Run(t.Context(), longRequest(), func(e Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("final status %q: %s", final.Status, final.Error)
	}
	if owners := rc.submissions(); len(owners) != 1 {
		t.Fatalf("submissions landed on %v: Run resubmitted a live job", owners)
	}
	checkEachSeqOnce(t, events)
}

// checkEachSeqOnce asserts that events are longRequest's full stream: data
// seqs 0, 1, 2, ... without replay or gap, one gate event per gate, then
// the terminal event.
func checkEachSeqOnce(t *testing.T, events []Event) {
	t.Helper()
	if len(events) == 0 || events[len(events)-1].Type != EventStatus {
		t.Fatalf("the stream did not end with the terminal event (%d events)", len(events))
	}
	gates := 0
	for i, e := range events[:len(events)-1] {
		if e.Type == EventStatus {
			t.Fatalf("terminal event delivered early, at position %d", i)
		}
		if e.Seq != int64(i) || e.Dropped != 0 {
			t.Fatalf("event %d has seq %d (dropped %d): a seq was replayed or skipped", i, e.Seq, e.Dropped)
		}
		if e.Type == EventGate {
			gates++
		}
	}
	if gates != 400 {
		t.Errorf("%d gate events delivered, want one per gate (400)", gates)
	}
}

// TestRunReturnsTerminalStatusWhenOwnerDiesAfterIt kills the owner after its
// terminal event has reached fn but before Run fetches the final envelope.
// The job is over, so Run reports the terminal event's status and must not
// resubmit.
func TestRunReturnsTerminalStatusWhenOwnerDiesAfterIt(t *testing.T) {
	rc := startRoutedCluster(t, 2)
	final, err := rc.runClient().Run(t.Context(), JobRequest{QASM: bellQASM, Shots: 8}, func(e Event) error {
		if e.Type == EventStatus {
			rc.backend(rc.submissions()[0]).kill()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	owners := rc.submissions()
	if len(owners) != 1 {
		t.Fatalf("submissions landed on %v: Run resubmitted a finished job", owners)
	}
	if final.Status != StatusDone || !strings.HasPrefix(final.ID, owners[0]+".") {
		t.Errorf("final = %+v, want %s's terminal status %q", final, owners[0], StatusDone)
	}
}

// TestClusterHashAffinityAndPrefixedIDs checks what a plain client sees of
// the router's placement: job ids carry the owner's name as a prefix, and an
// identical request pins to the same backend and hits its cache.
func TestClusterHashAffinityAndPrefixedIDs(t *testing.T) {
	rc := startRoutedCluster(t, 3)
	cl := rc.runClient()
	ctx := t.Context()

	req := JobRequest{QASM: bellQASM, Shots: 8}
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	owner := rc.submissions()[0]
	if !strings.HasPrefix(st.ID, owner+".") {
		t.Errorf("routed id %q lacks backend prefix %q", st.ID, owner)
	}
	final, err := cl.Wait(ctx, st.ID, 0)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("wait: %v / %+v", err, final)
	}
	if !strings.HasPrefix(final.ID, owner+".") {
		t.Errorf("status id %q not cluster-scoped", final.ID)
	}
	if _, err := cl.Result(ctx, st.ID); err != nil {
		t.Fatalf("result: %v", err)
	}

	for i := 0; i < 3; i++ {
		again, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := rc.submissions()[i+1]; got != owner {
			t.Fatalf("resubmission %d routed to %q, first went to %q", i, got, owner)
		}
		if !again.Cached {
			t.Fatalf("resubmission %d missed the cache: %+v", i, again)
		}
	}
}

// TestClusterSubmitFailsOverToRingSuccessor kills a request's owner: the
// same submission reroutes to the survivor, runs there, and later copies of
// it are served from the survivor's cache.
func TestClusterSubmitFailsOverToRingSuccessor(t *testing.T) {
	rc := startRoutedCluster(t, 2)
	cl := rc.runClient()
	ctx := t.Context()

	req := JobRequest{QASM: bellQASM}
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	primary := rc.submissions()[0]

	rc.backend(primary).kill()
	st2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("failover submit: %v", err)
	}
	if got := rc.submissions()[1]; got == primary {
		t.Fatalf("submission still routed to dead backend %q", primary)
	}
	final, err := cl.Wait(ctx, st2.ID, 0)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("failover job: %v / %+v", err, final)
	}

	st3, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := rc.submissions()[2]; got == primary {
		t.Errorf("submission routed to dead backend %q", primary)
	}
	if !st3.Cached {
		t.Errorf("survivor cache missed after failover: %+v", st3)
	}
}

// TestE2ERouterFailoverCompletesAllAcceptedJobs is the cluster's crash drill:
// a router fronts two real backends, one backend is killed mid-load, and
// every request still reaches a terminal done state — submissions reroute to
// the survivor, Client.Run resubmits jobs lost with the dead backend (content
// addressing makes that free of duplicate side effects), and the router's
// stats record the mark-down. Runs under -race with the rest of the suite.
func TestE2ERouterFailoverCompletesAllAcceptedJobs(t *testing.T) {
	rc := startRoutedCluster(t, 2)
	rt := rc.rt
	cl := New(rc.url, WithRetries(2, time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	const n = 10
	reqs := make([]JobRequest, n)
	for i := range reqs {
		reqs[i] = JobRequest{QASM: bellQASM, Shots: 16, Seed: int64(i + 1)}
	}

	// The first accepted job names the victim: its owner dies immediately,
	// so some jobs are guaranteed to be in flight against a dying backend.
	var killOnce sync.Once
	var victimMu sync.Mutex
	victim := ""
	rc.onSubmit = func(owner string) {
		killOnce.Do(func() {
			victimMu.Lock()
			victim = owner
			victimMu.Unlock()
			rc.backend(owner).kill()
		})
	}

	finals := make([]*JobStatus, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 3)
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			finals[i], errs[i] = cl.Run(ctx, reqs[i], nil)
		}()
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d never completed: %v", i, errs[i])
		}
		if finals[i].Status != StatusDone {
			t.Fatalf("request %d ended %q: %s", i, finals[i].Status, finals[i].Error)
		}
	}
	// The victim's first job was lost with it, so Run resubmitted at least
	// once.
	if got := len(rc.submissions()); got <= n {
		t.Errorf("%d routed submissions for %d requests: no lost job was resubmitted", got, n)
	}

	// The prober records the crash: exactly one backend marked down.
	victimMu.Lock()
	deadName := victim
	victimMu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cs := rt.Stats(ctx)
		if cs.Down == 1 && cs.Up == 1 {
			for _, b := range cs.Backends {
				if b.Name == deadName && b.Up {
					t.Errorf("victim %s still reported up: %+v", deadName, b)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mark-down never reflected in stats: %+v", cs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// No duplicate side effects: once a request's result exists on the
	// survivor, resubmitting it answers from the cache instead of executing
	// again.
	for i, req := range reqs {
		st, err := cl.Run(ctx, req, nil) // lands every result on the survivor
		if err != nil || st.Status != StatusDone {
			t.Fatalf("request %d resubmission: %v / %+v", i, err, st)
		}
		again, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatalf("request %d cached resubmission: %v", i, err)
		}
		if !again.Cached || again.Status != StatusDone {
			t.Errorf("request %d re-executed instead of hitting the cache: %+v", i, again)
		}
	}
}
