package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// postRaw submits body byte for byte (c.do re-marshals, which would compact
// a deliberately spaced body).
func (c *client) postRaw(body []byte) (int, []byte) {
	c.t.Helper()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
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

// perSubmission matches the two status fields every submission mints
// afresh: its job id and its submission time.
var perSubmission = regexp.MustCompile(`"(id|submitted_at)":"[^"]*"`)

// withoutIDs blanks a status body's id and submitted_at.
func withoutIDs(body []byte) []byte {
	return perSubmission.ReplaceAll(body, []byte(`"$1":""`))
}

func memoLen(m *BodyMemo) int { return m.entries.stats().Entries }

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestMemoRepeatIsByteIdentical: a body answered through the memo (no
// decode, parse or hash) gets the status body a cache hit without the memo
// gets — a spaced copy of the same request misses the memo but hits the
// cache — apart from the id and submission time, and /v1/stats counts the
// lookups as before: one miss for the run, one hit per repeat.
func TestMemoRepeatIsByteIdentical(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	body := mustMarshal(t, JobRequest{Name: "ghz4", QASM: ghzQASM, Shots: 64, Strategy: StrategyFidelity,
		StrategyParams: json.RawMessage(`{"final_fidelity":0.8,"round_fidelity":0.9}`)})
	spaced := append([]byte(" "), body...)

	code, first := c.postRaw(body)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d: %s", code, first)
	}
	var st JobStatus
	if err := json.Unmarshal(first, &st); err != nil {
		t.Fatal(err)
	}
	if done := c.await(st.ID); done.Status != StatusDone {
		t.Fatalf("first job: %+v", done)
	}
	code, viaCache := c.postRaw(spaced)
	if code != http.StatusOK {
		t.Fatalf("spaced copy: HTTP %d: %s", code, viaCache)
	}
	if _, ok := s.memo.Get(sha256.Sum256(body)); !ok {
		t.Fatal("a resolved body is not in the memo")
	}
	for i := 0; i < 3; i++ {
		code, viaMemo := c.postRaw(body)
		if code != http.StatusOK {
			t.Fatalf("repeat %d: HTTP %d: %s", i, code, viaMemo)
		}
		if a, b := withoutIDs(viaCache), withoutIDs(viaMemo); !bytes.Equal(a, b) {
			t.Fatalf("memo hit answered\n%s\nthe cache without the memo answered\n%s", b, a)
		}
	}
	if got := c.stats().Cache; got.Hits != 4 || got.Misses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 4/1", got.Hits, got.Misses)
	}
	if n := memoLen(s.memo); n != 2 {
		t.Errorf("memo holds %d bodies, want 2 (the body and its spaced copy)", n)
	}
}

// TestMemoRejectedBodies: a body that fails to resolve never enters the
// memo and gets the same status and error text on every repeat.
func TestMemoRejectedBodies(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, MaxQubits: 8})
	bodies := map[string][]byte{
		"p and gamma": mustMarshal(t, JobRequest{QASM: ghzQASM, Noise: "amplitude_damping",
			NoiseParams: map[string]float64{"p": 0.1, "gamma": 0.2}}),
		"unknown noise params": mustMarshal(t, JobRequest{QASM: ghzQASM, Noise: "depolarizing",
			NoiseParams: map[string]float64{"zz": 1, "q": 2, "r": 3}}),
		"over MaxQubits": mustMarshal(t, JobRequest{Qubits: 9, Gates: []GateSpec{{Name: "h"}}}),
		"unknown field":  []byte(`{"qasm":"x","sots":5}`),
		"truncated":      []byte(`{"qasm":`),
		"parse error":    []byte(`{"qasm":"OPENQASM 9;"}`),
	}
	for name, body := range bodies {
		code, first := c.postRaw(body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400: %s", name, code, first)
		}
		for i := 0; i < 20; i++ {
			if again, body := c.postRaw(body); again != code || !bytes.Equal(body, first) {
				t.Fatalf("%s: repeat %d answered HTTP %d %s, first HTTP %d %s", name, i, again, body, code, first)
			}
		}
	}
	_, both := c.postRaw(bodies["p and gamma"])
	if !strings.Contains(string(both), strings.ReplaceAll(sim.ErrNoiseStrengthTwice.Error(), `"`, `\"`)) {
		t.Errorf("p and gamma together answered %s", both)
	}
	if n := memoLen(s.memo); n != 0 {
		t.Errorf("rejected bodies left %d memo entries", n)
	}
}

// TestMemoBounded: the memo holds at most CacheEntries bodies, and none
// when caching is off.
func TestMemoBounded(t *testing.T) {
	for _, entries := range []int{3, -1} {
		s, c := newTestServer(t, Config{Workers: 1, CacheEntries: entries})
		for seed := int64(1); seed <= 4; seed++ {
			if code, body := c.postRaw(mustMarshal(t, JobRequest{QASM: ghzQASM, Seed: seed})); code != http.StatusAccepted {
				t.Fatalf("seed %d: HTTP %d: %s", seed, code, body)
			}
		}
		if want := max(entries, 0); memoLen(s.memo) != want {
			t.Errorf("CacheEntries %d: memo holds %d bodies after 4, want %d", entries, memoLen(s.memo), want)
		}
	}
}

// TestMemoHitAfterEviction: a body still in the memo whose result left the
// cache runs again and answers what the first run answered.
func TestMemoHitAfterEviction(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, CacheEntries: 2})
	body := mustMarshal(t, JobRequest{Name: "again", QASM: ghzQASM, Shots: 128})
	run := func() (JobStatus, ResultPayload) {
		t.Helper()
		code, raw := c.postRaw(body)
		if code != http.StatusAccepted {
			t.Fatalf("HTTP %d (want a fresh run): %s", code, raw)
		}
		var st JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		done := c.await(st.ID)
		var p ResultPayload
		if err := json.Unmarshal(done.Result, &p); done.Status != StatusDone || err != nil {
			t.Fatalf("job %+v: %v", done, err)
		}
		p.RuntimeMS = 0 // the one wall-clock field
		return done, p
	}
	first, p1 := run()
	s.cache.put("x", nil)
	s.cache.put("y", nil) // evicts the first run's result
	if _, ok := s.memo.Get(sha256.Sum256(body)); !ok {
		t.Fatal("the body left the memo with its result")
	}
	second, p2 := run()
	if second.Name != first.Name || second.Hash != first.Hash {
		t.Errorf("rerun status %+v, first %+v", second, first)
	}
	if a, b := fmt.Sprintf("%+v", p1), fmt.Sprintf("%+v", p2); a != b {
		t.Errorf("rerun payload\n%s\nfirst\n%s", b, a)
	}
}

// TestOversizeBodyKeepsErrorText: a body over MaxBodyBytes is a 400 worded
// like every other undecodable body.
func TestOversizeBodyKeepsErrorText(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	code, body := c.postRaw(mustMarshal(t, JobRequest{QASM: ghzQASM}))
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte(`"error":"decoding submission: http: request body too large"`)) {
		t.Errorf("HTTP %d: %s", code, body)
	}
}

// TestBodyMemoLRU: the memo keeps the most recently used bodies.
func TestBodyMemoLRU(t *testing.T) {
	m := NewBodyMemo(2)
	a, b, c := sha256.Sum256([]byte("a")), sha256.Sum256([]byte("b")), sha256.Sum256([]byte("c"))
	m.Put(a, MemoEntry{Hash: "ha"})
	m.Put(b, MemoEntry{Hash: "hb"})
	if e, ok := m.Get(a); !ok || e.Hash != "ha" {
		t.Fatalf("get a: %+v %v", e, ok)
	}
	m.Put(c, MemoEntry{Hash: "hc"}) // b is least recently used
	if _, ok := m.Get(b); ok {
		t.Error("b survived past the bound")
	}
	if memoLen(m) != 2 {
		t.Errorf("memo holds %d bodies, want 2", memoLen(m))
	}
}

// TestBodyMemoConcurrent: handlers share one memo; concurrent gets and puts
// stay within the bound (run under -race).
func TestBodyMemoConcurrent(t *testing.T) {
	m := NewBodyMemo(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := sha256.Sum256([]byte{byte(g), byte(i % 16)})
				if e, ok := m.Get(key); ok && e.Hash != fmt.Sprint(g, i%16) {
					t.Errorf("key %d/%d holds %q", g, i%16, e.Hash)
				}
				m.Put(key, MemoEntry{Hash: fmt.Sprint(g, i%16)})
			}
		}()
	}
	wg.Wait()
	if n := memoLen(m); n != 8 {
		t.Errorf("memo holds %d bodies, want 8", n)
	}
}
