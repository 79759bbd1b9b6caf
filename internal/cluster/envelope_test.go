package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/serve"
)

// answer is one HTTP answer as a client sees it: status, Retry-After and the
// exact body bytes.
type answer struct {
	code  int
	retry string
	body  string
}

func do(t *testing.T, method, url string, body []byte) answer {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return answer{resp.StatusCode, resp.Header.Get("Retry-After"), string(raw)}
}

// deadURL is the address of a server that no longer listens.
func deadURL() string {
	hs := httptest.NewServer(http.NotFoundHandler())
	hs.Close()
	return hs.URL
}

// TestRetriableAnswersGolden pins, byte for byte, the three retriable 503s
// a cluster client can meet: the router's no_backend shed and backend_down
// job answer, and a backend's queue_full backpressure.
func TestRetriableAnswersGolden(t *testing.T) {
	rt, err := New(Config{Backends: []string{deadURL()}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.members[0].up.Store(false)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	body, _ := json.Marshal(serve.JobRequest{QASM: ghzQASM})

	// The recovery horizon is ProbeInterval × MarkUpAfter: 2h.
	want := answer{http.StatusServiceUnavailable, "7200",
		`{"code":"no_backend","error":"no backend available for this submission","retry_after_ms":7200000}` + "\n"}
	if got := do(t, http.MethodPost, hs.URL+"/v1/jobs", body); got != want {
		t.Errorf("no_backend:\n got %+v\nwant %+v", got, want)
	}
	want = answer{http.StatusServiceUnavailable, "7200",
		`{"code":"backend_down","error":"backend b0 (owner of b0.job-000001) is marked down","retry_after_ms":7200000}` + "\n"}
	if got := do(t, http.MethodGet, hs.URL+"/v1/jobs/b0.job-000001", nil); got != want {
		t.Errorf("backend_down:\n got %+v\nwant %+v", got, want)
	}

	// One worker busy on a long job and one queued job fill a depth-1
	// queue; no job has finished, so the estimate sits at its 100ms floor.
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 1})
	simd := httptest.NewServer(s.Handler())
	defer func() {
		simd.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // cancel both jobs rather than wait for them
		s.Shutdown(ctx)
	}()
	slow := serve.JobRequest{Qubits: 14}
	for _, g := range gen.RandomCliffordT(14, 100000, 1).Gates() {
		gs := serve.GateSpec{Name: g.Name, Params: g.Params, Target: g.Target}
		for _, c := range g.Controls {
			gs.Controls = append(gs.Controls, c.Qubit)
		}
		slow.Gates = append(slow.Gates, gs)
	}
	submit := func(seed int64) answer {
		slow.Seed = seed
		raw, _ := json.Marshal(slow)
		return do(t, http.MethodPost, simd.URL+"/v1/jobs", raw)
	}
	if got := submit(1); got.code != http.StatusAccepted {
		t.Fatalf("head job: %+v", got)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		var st struct{ Pool struct{ Running int } }
		json.Unmarshal([]byte(do(t, http.MethodGet, simd.URL+"/v1/stats", nil).body), &st)
		if st.Pool.Running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("head job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := submit(2); got.code != http.StatusAccepted {
		t.Fatalf("queued job: %+v", got)
	}
	want = answer{http.StatusServiceUnavailable, "1",
		`{"code":"queue_full","error":"batch: pool queue full","queue_depth":1,"retry_after_ms":100}` + "\n"}
	if got := submit(3); got != want {
		t.Errorf("queue_full:\n got %+v\nwant %+v", got, want)
	}
}

// TestListFollowsBackendOrder pins GET /v1/jobs through the router: jobs and
// unreachable backends come in backend order, whatever order the backends
// answer in, and a backend answering the list fetch with a non-200 status
// is unreachable, not empty.
func TestListFollowsBackendOrder(t *testing.T) {
	lister := func(delay time.Duration, code int, ids ...string) string {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				fmt.Fprint(w, `{"status":"ok"}`)
				return
			}
			time.Sleep(delay)
			if code != http.StatusOK {
				w.WriteHeader(code)
				fmt.Fprint(w, `{"error":"boom"}`)
				return
			}
			var l struct {
				Jobs []serve.JobStatus `json:"jobs"`
			}
			for _, id := range ids {
				l.Jobs = append(l.Jobs, serve.JobStatus{ID: id, Status: serve.StatusDone})
			}
			json.NewEncoder(w).Encode(l)
		}))
		t.Cleanup(hs.Close)
		return hs.URL
	}
	rt, err := New(Config{
		Backends: []string{
			lister(100*time.Millisecond, http.StatusOK, "job-000001", "job-000002"),
			lister(0, http.StatusInternalServerError),
			deadURL(),
			lister(0, http.StatusOK, "job-000003"),
			lister(0, http.StatusOK, "job-000004"),
		},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.members[4].up.Store(false)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	got := do(t, http.MethodGet, hs.URL+"/v1/jobs", nil)
	if got.code != http.StatusOK {
		t.Fatalf("list: %+v", got)
	}
	var l struct {
		Jobs        []serve.JobStatus `json:"jobs"`
		Unreachable []string          `json:"unreachable"`
	}
	if err := json.Unmarshal([]byte(got.body), &l); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, j := range l.Jobs {
		ids = append(ids, j.ID)
	}
	if want := []string{"b0.job-000001", "b0.job-000002", "b3.job-000003"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("jobs %v, want %v", ids, want)
	}
	if want := []string{"b1", "b2", "b4"}; !reflect.DeepEqual(l.Unreachable, want) {
		t.Errorf("unreachable %v, want %v", l.Unreachable, want)
	}
}

// TestListBoundedByProbeTimeout checks that GET /v1/jobs through the router
// answers within a small multiple of ProbeTimeout when one backend accepts
// the list fetch and never answers, and names that backend unreachable.
func TestListBoundedByProbeTimeout(t *testing.T) {
	const probe = 100 * time.Millisecond
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer stuck.Close()
	defer close(release)
	rt, err := New(Config{Backends: []string{stuck.URL}, ProbeInterval: time.Hour, ProbeTimeout: probe})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	client := &http.Client{Timeout: 30 * probe}
	start := time.Now()
	resp, err := client.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("list did not answer within %v: %v", client.Timeout, err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 10*probe {
		t.Errorf("list took %v, want under %v", elapsed, 10*probe)
	}
	var l struct {
		Unreachable []string `json:"unreachable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		t.Fatal(err)
	}
	if want := []string{"b0"}; !reflect.DeepEqual(l.Unreachable, want) {
		t.Errorf("unreachable %v, want %v", l.Unreachable, want)
	}
}
