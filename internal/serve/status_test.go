package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestJobStatusEncodesIDFirstAndResultLast pins the field order two
// writers rely on: the router splices its backend prefix in after a
// leading {"id":", and writeStatus splices the stored payload in as the
// last field.
func TestJobStatusEncodesIDFirstAndResultLast(t *testing.T) {
	typ := reflect.TypeOf(JobStatus{})
	if tag := typ.Field(0).Tag.Get("json"); tag != "id" {
		t.Errorf("first JobStatus field encodes as %q, want \"id\"", tag)
	}
	if tag := typ.Field(typ.NumField() - 1).Tag.Get("json"); tag != "result,omitempty" {
		t.Errorf("last JobStatus field encodes as %q, want \"result,omitempty\"", tag)
	}
	b, err := json.Marshal(JobStatus{ID: "job-000001", Name: "n", Status: StatusDone, Hash: "ab",
		Submitted: "x", Error: "e", Result: json.RawMessage(`{"num_qubits":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(`{"id":"job-000001",`)) || !bytes.HasSuffix(b, []byte(`,"result":{"num_qubits":1}}`)) {
		t.Errorf("JobStatus encodes as %s", b)
	}
}

// TestWriteStatusMatchesEncoder: writeStatus writes exactly the bytes,
// status code and content type json.NewEncoder(w).Encode would, for cached,
// done, failed and queued jobs.
func TestWriteStatusMatchesEncoder(t *testing.T) {
	payload, err := json.Marshal(ResultPayload{
		NumQubits: 3, GateCount: 4, Strategy: "memory", ResolvedStrategy: "memory",
		ResolvedStrategyParams: json.RawMessage(`{ "threshold": 8, "note": "<&>" }`),
		Backend:                "statevector", Seed: 7, MaxDDSize: 5, EstimatedFidelity: 0.97,
		Rounds:  []RoundPayload{{GateIndex: 2, SizeBefore: 9, SizeAfter: 5, Achieved: 0.97}},
		Samples: map[string]int{"000": 3, "111": 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	created := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	s := &Server{}
	for _, js := range []*jobState{
		{id: "job-000001", name: "hit <1>", hash: "ab", cached: true, created: created, status: StatusDone, payload: payload},
		{id: "job-000002", hash: "cd", created: created, status: StatusDone, payload: payload},
		{id: "job-000003", name: "f", hash: "ef", created: created, status: StatusFailed, errMsg: "boom & <bust> "},
		{id: "job-000004", hash: "01", created: created},
	} {
		st := s.statusOf(js, true)
		want := httptest.NewRecorder()
		want.Header().Set("Content-Type", "application/json")
		want.WriteHeader(http.StatusOK)
		json.NewEncoder(want).Encode(st)

		got := httptest.NewRecorder()
		writeStatus(got, http.StatusOK, st)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s: HTTP %d %q, want %d %q", js.id, got.Code, got.Header().Get("Content-Type"),
				want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: writeStatus wrote\n%s\nwant\n%s", js.id, got.Body, want.Body)
		}
		if hasResult := strings.Contains(want.Body.String(), `"result"`); hasResult != (js.status == StatusDone) {
			t.Errorf("%s: result present = %v for status %q", js.id, hasResult, js.status)
		}
	}
}
