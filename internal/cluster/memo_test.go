package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"testing"

	"repro/internal/serve"
)

// postRaw submits body through the router byte for byte.
func (tc *testCluster) postRaw(body []byte) (*http.Response, []byte) {
	tc.t.Helper()
	resp, err := http.Post(tc.routerHS.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tc.t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

// perSubmission matches the two status fields every submission mints
// afresh: its routed job id and its submission time.
var perSubmission = regexp.MustCompile(`"(id|submitted_at)":"[^"]*"`)

func withoutIDs(body []byte) []byte {
	return perSubmission.ReplaceAll(body, []byte(`"$1":""`))
}

// TestRouterMemoRepeatIsByteIdentical: a body the router routes from its
// memo (no decode, parse or hash) reaches the same backend under the same
// hash and gets the status body a spaced copy of the request gets, which
// misses both tiers' memos but hits the backend's cache — apart from the
// id and submission time.
func TestRouterMemoRepeatIsByteIdentical(t *testing.T) {
	tc := startCluster(t, 2, Config{})
	body, err := json.Marshal(serve.JobRequest{Name: "ghz3", QASM: ghzQASM, Shots: 32})
	if err != nil {
		t.Fatal(err)
	}
	resp, first := tc.postRaw(body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d: %s", resp.StatusCode, first)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(first, &st); err != nil {
		t.Fatal(err)
	}
	if done := tc.await(st.ID); done.Status != serve.StatusDone {
		t.Fatalf("first job: %+v", done)
	}
	spacedResp, viaCache := tc.postRaw(append([]byte("\n"), body...))
	if spacedResp.StatusCode != http.StatusOK {
		t.Fatalf("spaced copy: HTTP %d: %s", spacedResp.StatusCode, viaCache)
	}
	for i := 0; i < 3; i++ {
		resp, viaMemo := tc.postRaw(body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat %d: HTTP %d: %s", i, resp.StatusCode, viaMemo)
		}
		if a, b := withoutIDs(viaCache), withoutIDs(viaMemo); !bytes.Equal(a, b) {
			t.Fatalf("memo hit answered\n%s\nthe spaced copy answered\n%s", b, a)
		}
		for _, h := range []string{HeaderHash, HeaderBackend, HeaderRoute} {
			if got, want := resp.Header.Get(h), spacedResp.Header.Get(h); got != want {
				t.Errorf("repeat %d: %s %q, spaced copy %q", i, h, got, want)
			}
		}
	}
	if _, ok := tc.router.memo.Get(sha256.Sum256(body)); !ok {
		t.Error("a routed body is not in the router's memo")
	}
}

// TestRouterMemoRejectedBodies: a body the router rejects never enters its
// memo and gets the same status and error text on every repeat.
func TestRouterMemoRejectedBodies(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	for _, body := range []string{
		`{"qasm":"x","sots":5}`,
		`{"qasm":`,
		`{"qasm":"OPENQASM 9;"}`,
		`{"qubits":2,"gates":[{"name":"h","target":0}],"noise":"amplitude_damping","noise_params":{"p":0.1,"gamma":0.2}}`,
		`{"qubits":2,"gates":[{"name":"h","target":0}],"noise":"depolarizing","noise_params":{"zz":1,"q":2,"r":3}}`,
	} {
		if _, ok := tc.router.memo.Get(sha256.Sum256([]byte(body))); ok {
			t.Errorf("%s entered the router's memo", body)
		}
		resp, first := tc.postRaw([]byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400: %s", body, resp.StatusCode, first)
		}
		for i := 0; i < 20; i++ {
			again, out := tc.postRaw([]byte(body))
			if again.StatusCode != resp.StatusCode || !bytes.Equal(out, first) {
				t.Fatalf("%s: repeat %d answered HTTP %d %s, first HTTP %d %s", body, i, again.StatusCode, out, resp.StatusCode, first)
			}
		}
		if _, ok := tc.router.memo.Get(sha256.Sum256([]byte(body))); ok {
			t.Errorf("%s entered the router's memo", body)
		}
	}
}

// TestRouterMemoBounded: the router's memo holds at most memoEntries
// bodies, least recently used out first.
func TestRouterMemoBounded(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	key := func(i int) [sha256.Size]byte { return sha256.Sum256(binary.BigEndian.AppendUint32(nil, uint32(i))) }
	for i := 0; i <= memoEntries; i++ {
		tc.router.memo.Put(key(i), serve.MemoEntry{Hash: "h"})
	}
	if _, ok := tc.router.memo.Get(key(0)); ok {
		t.Errorf("the oldest of %d bodies is still remembered, bound %d", memoEntries+1, memoEntries)
	}
	if _, ok := tc.router.memo.Get(key(1)); !ok {
		t.Error("the second oldest body was dropped too")
	}
}
