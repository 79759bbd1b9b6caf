package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// statusBody encodes st as a serve backend writes it.
func statusBody(t *testing.T, st serve.JobStatus) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(st); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// resultPayload is a stand-in result whose bytes the router must not touch,
// compact and HTML-escaped as json.Marshal writes stored payloads.
const resultPayload = `{"num_qubits":3,"samples":{"000":5,"111":3},"note":"\u003cb\u003e"}`

// TestRewriteJobIDSplicesThePrefix: a 2xx status body gains the routed
// prefix on its id and is otherwise byte-identical, result included, also
// for a backend name that needs JSON escaping.
func TestRewriteJobIDSplicesThePrefix(t *testing.T) {
	body := statusBody(t, serve.JobStatus{
		ID: "job-000007", Status: serve.StatusDone, Cached: true, Hash: "ab12",
		Submitted: "2026-01-02T03:04:05Z", Result: json.RawMessage(resultPayload),
	})
	for _, name := range []string{"b0", `b"1\`, "<b&2>", "b\u00e9\u2028"} {
		head, rest := rewriteJobID(body, routedIDPrefix(name))
		out := append(append([]byte(nil), head...), rest...)
		if !json.Valid(out) {
			t.Fatalf("%q: rewritten body is not valid JSON: %s", name, out)
		}
		var st serve.JobStatus
		if err := json.Unmarshal(out, &st); err != nil {
			t.Fatal(err)
		}
		if want := name + idSep + "job-000007"; st.ID != want {
			t.Errorf("%q: id %q, want %q", name, st.ID, want)
		}
		if string(st.Result) != resultPayload {
			t.Errorf("%q: result %s, want %s", name, st.Result, resultPayload)
		}
		lead := len(statusLead)
		if rest := out[len(routedIDPrefix(name)):]; !bytes.Equal(rest, body[lead:]) {
			t.Errorf("%q: body after the prefix differs:\n%s\nwant\n%s", name, rest, body[lead:])
		}
	}
}

// TestRewriteJobIDLeavesOtherBodies: result payloads, job lists, error
// envelopes and a status with an empty id come back unmodified.
func TestRewriteJobIDLeavesOtherBodies(t *testing.T) {
	for _, body := range []string{
		resultPayload + "\n",
		`{"jobs":[{"id":"job-000001","status":"done","cached":false,"hash":"ab","submitted_at":"x"}]}` + "\n",
		`{"code":"queue_full","error":"queue full","queue_depth":4,"retry_after_ms":100}` + "\n",
		`{"id":"","status":"queued","cached":false,"hash":"ab","submitted_at":"x"}` + "\n",
		``,
	} {
		if head, rest := rewriteJobID([]byte(body), routedIDPrefix("b0")); len(head) != 0 || string(rest) != body {
			t.Errorf("rewrote %q into %q + %q", body, head, rest)
		}
	}
}

// TestRelayRewritesOnlySuccessfulStatusBodies drives the router against a
// scripted backend: 2xx status bodies gain the prefix, the result endpoint
// and a non-2xx body that happens to open with an id pass through verbatim.
func TestRelayRewritesOnlySuccessfulStatusBodies(t *testing.T) {
	done := statusBody(t, serve.JobStatus{
		ID: "job-000001", Status: serve.StatusDone, Hash: "ab", Submitted: "x",
		Result: json.RawMessage(resultPayload),
	})
	refused := []byte(`{"id":"job-000002","error":"scripted refusal"}` + "\n")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /v1/jobs/job-000001", func(w http.ResponseWriter, r *http.Request) { w.Write(done) })
	mux.HandleFunc("GET /v1/jobs/job-000001/result", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(resultPayload))
	})
	mux.HandleFunc("GET /v1/jobs/job-000002", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		w.Write(refused)
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()
	rt, err := New(Config{Backends: []string{backend.URL}, Names: []string{"b0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for _, tc := range []struct {
		path string
		code int
		want string
	}{
		{"/v1/jobs/b0.job-000001", http.StatusOK, `{"id":"b0.` + strings.TrimPrefix(string(done), statusLead)},
		{"/v1/jobs/b0.job-000001/result", http.StatusOK, resultPayload},
		{"/v1/jobs/b0.job-000002", http.StatusConflict, string(refused)},
	} {
		resp, err := http.Get(front.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || string(got) != tc.want {
			t.Errorf("GET %s: HTTP %d %s\nwant HTTP %d %s", tc.path, resp.StatusCode, got, tc.code, tc.want)
		}
	}
}
