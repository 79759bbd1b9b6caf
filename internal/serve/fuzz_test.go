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

// FuzzJobRequest drives arbitrary bodies through DecodeRequest, compile and
// CanonicalHash. No body may panic; CanonicalHash is a function of the
// request (two calls give the same hash or the same error), which the body
// memo depends on; a request CanonicalHash rejects is
// rejected by compile too, so the routing tier never turns away a job a
// backend would run; whenever compile accepts a request, its cache key is
// the routing tier's CanonicalHash; and a request hashes like its own JSON
// re-marshal, so a client that re-encodes a submission keeps its cache
// entry and its backend.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"name":"ghz4","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n","strategy":"fidelity","strategy_params":{"final_fidelity":0.8,"round_fidelity":0.9},"shots":64}`,
		`{"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\nrz(0.3) q[2];\n","strategy":"auto"}`,
		`{"qubits":4,"gates":[{"name":"h","target":0},{"name":"x","target":1,"controls":[0]},{"name":"x","target":3,"controls":[2]}],"blocks":[1],"strategy":"reorder","strategy_params":{"order":"scored","sift":true,"inner":"memory","inner_params":{"threshold":8,"round_fidelity":0.95}}}`,
		`{"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n","noise":"amplitude_damping","noise_params":{"gamma":0.05,"seed":3},"backend":"statevector","shots":16}`,
		`{"qubits":2,"gates":[{"name":"h","target":0}],"strategy":"replace","strategy_params":{"node_budget":4,"fidelity_floor":0.9,"kinds":["promote"]},"seed":7}`,
		`{"qubits":2,"gates":[{"name":"h","target":0}],"strategy":"auto","noise":"dephasing","noise_params":{"p":0.1},"backend":"statevector"}`,
		`{"qubits":2,"gates":[{"name":"h","target":0}],"strategy":"exact","strategy_params":{"x":1},"noise_params":{"p":0.1}}`,
		`{"qubits":2,"gates":[{"name":"h","target":0}],"noise":"amplitude_damping","noise_params":{"p":0.1,"gamma":0.2,"seed":5}}`,
		`{"qubits":2,"gates":[{"name":"h","target":0},{"name":"h","target":1}],"strategy":"fidelity","strategy_params":{"final_fidelity":1e-300,"round_fidelity":0.9999999999999999}}`,
		`{"qubits":2,"gates":[{"name":"h","target":0},{"name":"h","target":1}],"strategy":"fidelity","strategy_params":{"final_fidelity":1e-5,"round_fidelity":0.99999999999}}`,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{Workers: 1, MaxQubits: 16, MaxShots: 1 << 12})
	defer s.Shutdown(nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 4096 {
			t.Skip()
		}
		req, err := DecodeRequest(body)
		if err != nil {
			return
		}
		hash, hashErr := CanonicalHash(req)
		if again, againErr := CanonicalHash(req); again != hash || errText(againErr) != errText(hashErr) {
			t.Fatalf("CanonicalHash not a function of the request: %q (err %v), then %q (err %v)", hash, hashErr, again, againErr)
		}
		c, err := s.compile(req)
		if hashErr != nil && err == nil {
			t.Fatalf("CanonicalHash rejected a request compile accepted: %v", hashErr)
		}
		if err == nil && c.hash != hash {
			t.Fatalf("compile hash %s, CanonicalHash %s", c.hash, hash)
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		again, err := DecodeRequest(raw)
		if err != nil {
			t.Fatalf("re-marshalled body %s rejected: %v", raw, err)
		}
		hash2, hashErr2 := CanonicalHash(again)
		if (hashErr == nil) != (hashErr2 == nil) || hash != hash2 {
			t.Fatalf("hash %q (err %v) changed to %q (err %v) after re-marshal to %s", hash, hashErr, hash2, hashErr2, raw)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// payloadSeeds are the result payloads the server writes: the one
// TestWriteStatusMatchesEncoder splices and a serve-hot-shaped one.
func payloadSeeds(tb testing.TB) [][]byte {
	var out [][]byte
	for _, p := range []ResultPayload{
		{
			NumQubits: 3, GateCount: 4, Strategy: "memory", ResolvedStrategy: "memory",
			ResolvedStrategyParams: json.RawMessage(`{ "threshold": 8, "note": "<&>" }`),
			Backend:                "statevector", Seed: 7, MaxDDSize: 5, EstimatedFidelity: 0.97,
			Rounds:  []RoundPayload{{GateIndex: 2, SizeBefore: 9, SizeAfter: 5, Achieved: 0.97}},
			Samples: map[string]int{"000": 3, "111": 5},
		},
		hotPayload(),
	} {
		raw, err := json.Marshal(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// TestServerPayloadsDecodeWithoutReflection: the samples of every payload
// the server writes take the reflection-free path, also when the payload
// is a whole response body ending in the encoder's newline.
func TestServerPayloadsDecodeWithoutReflection(t *testing.T) {
	for _, raw := range payloadSeeds(t) {
		for _, body := range [][]byte{raw, append(raw, '\n')} {
			if _, _, ok := cutSamples(body); !ok {
				t.Errorf("samples of %q take the encoding/json path", body)
			}
		}
	}
}

// FuzzResultPayloadDecode: ResultPayload.UnmarshalJSON, called directly
// on a whole body as the client calls it or through json.Unmarshal, leaves
// the same value and returns the same error as encoding/json decoding the
// plain struct, into a zero payload and into one whose samples, rounds and
// noise parameters are set.
func FuzzResultPayloadDecode(f *testing.F) {
	for _, seed := range payloadSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range []string{
		`{"num_qubits":2,"samples":{"00":1,"11":3},"runtime_ms":1.5}`,
		`{"samples":{"0\u0031":1,"10":2}}`,
		`{"samples":{ "01": 2 },"seed":3}`,
		`{"samples" :{"01":2}}`,
		` {"samples":{"01":2}}`,
		`{"samples":null,"seed":3}`,
		`{"samples":{}}`,
		`{"samples":{"0":1,"0":2}}`,
		`{"samples":{"0":1},"samples":{"1":2}}`,
		`{"samples":{"0":1},"SAMPLES":{"1":2}}`,
		`{"ſamples":{"1":2}}`,
		`{"samples":{"é":1}}`,
		"{\"samples\":{\"\xff\":1}}",
		`{"samples":{"0":1.0}}`,
		`{"samples":{"0":-0}}`,
		`{"samples":{"0":-3}}`,
		`{"samples":{"0":007}}`,
		`{"samples":{"0":9223372036854775807}}`,
		`{"samples":{"0":99999999999999999999}}`,
		`{"samples":{"0":1},"num_qubits":"x"}`,
		`{"samples":{"0":1},"rounds":[{"gate_index":1},{"size_after":2}],"noise_params":{"p":0.5}}`,
		`{"resolved_strategy_params":{"samples":{"0":1}},"samples":{"1":1}}`,
		`{"samples":{"0":1},}`,
		`{"samples":{"0":1}} x`,
		`{"samples":{"0":1}}` + "\n",
		`{"samples":{"0":1},"seed":2} ` + "\t\r\n",
		"\n" + `{"samples":{"0":1}}`,
		`{"samples":{"0":1},"seed" :2}`,
		`{"samples":{"0":1},"seed": 2}`,
		`{"samples":{"0":1},"seed":2 }`,
		`{"samples":{"0":1},"rounds":[{"gate_index":01}]}`,
		`{"samples":{"0":1},"noise":"\u00zz"}`,
		"{\"samples\":{\"0\":1},\"noise\":\"\x01\"}",
		`{"samples":{"0":1},"seed":2}}`,
		`null`,
		`[]`,
		` `,
	} {
		f.Add([]byte(seed))
	}
	type payload = ResultPayload
	// The reference decode: the plain struct, named like the payload so
	// that error texts compare equal.
	type ResultPayload payload
	starts := []func() payload{
		func() payload { return payload{} },
		func() payload {
			return payload{
				Samples:     map[string]int{"0": 7, "11": 2},
				Rounds:      []RoundPayload{{GateIndex: 9, RemovedNodes: 4}},
				NoiseParams: map[string]float64{"p": 0.1},
			}
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, start := range starts {
			ref := ResultPayload(start())
			refErr := json.Unmarshal(data, &ref)
			direct := start()
			directErr := direct.UnmarshalJSON(data)
			viaJSON := start()
			viaErr := json.Unmarshal(data, &viaJSON)
			for _, got := range []struct {
				how string
				p   payload
				err error
			}{{"UnmarshalJSON", direct, directErr}, {"json.Unmarshal", viaJSON, viaErr}} {
				if errText(got.err) != errText(refErr) {
					t.Fatalf("%s of %q: error %v, encoding/json %v", got.how, data, got.err, refErr)
				}
				if !reflect.DeepEqual(got.p, payload(ref)) {
					t.Fatalf("%s of %q:\n got %+v\nwant %+v", got.how, data, got.p, payload(ref))
				}
			}
		}
	})
}

// statusSeeds are status bodies as the server writes them: a serve-hot
// cache hit, a finished job with a small payload, a failed job and a
// queued one.
func statusSeeds(tb testing.TB) [][]byte {
	payloads := payloadSeeds(tb)
	created := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	var out [][]byte
	for _, js := range []*jobState{
		{id: "job-000001", name: "cliffordt16x400-3", hash: "ab12", cached: true, created: created, status: StatusDone, payload: payloads[1]},
		{id: "job-000002", hash: "cd34", created: created, status: StatusDone, payload: payloads[0]},
		{id: "job-000003", name: "f", hash: "ef56", created: created, status: StatusFailed, errMsg: "boom"},
		{id: "job-000004", hash: "0178", created: created},
	} {
		rec := httptest.NewRecorder()
		writeStatus(rec, http.StatusOK, (&Server{}).statusOf(js, true))
		out = append(out, rec.Body.Bytes())
	}
	return out
}

// TestServerStatusesDecodeInOnePass: every status body seeded above takes
// DecodeStatus's one pass, and a result aliases the body.
func TestServerStatusesDecodeInOnePass(t *testing.T) {
	for _, body := range statusSeeds(t) {
		var st JobStatus
		if !decodeStatus(body, &st) {
			t.Errorf("%s takes the encoding/json path", body)
			continue
		}
		if at := bytes.Index(body, []byte(`"result":`)); at >= 0 && &st.Result[0] != &body[at+len(`"result":`)] {
			t.Errorf("Result of %s is a copy, not a slice of the body", body)
		}
	}
}

// FuzzDecodeStatus: DecodeStatus leaves the same status and returns the
// same error as json.Unmarshal, into a zero status and into one whose
// every field is set, with Result equal byte for byte.
func FuzzDecodeStatus(f *testing.F) {
	for _, seed := range statusSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range []string{
		`{"id":"a","status":"done","result": {"x":1} }` + "\n",
		` { "id" : "a" , "cached" : true } ` + "\r\n\t",
		"{\"result\":\t[1, 2]\r\n}",
		`{"result" :null}`,
		`{}`,
		`{ }`,
		`{"i\u0064":"a"}`,
		`{"ID":"a","Status":"done","CACHED":true}`,
		`{"ſtatus":"x","submitted_At":"y"}`,
		`{"id":"a\"b","error":"\u003c"}`,
		`{"id":"é"}`,
		"{\"id\":\"\xff\"}",
		`{"id":"a","id":"b"}`,
		`{"cached":true,"cached":false}`,
		`{"id":null,"cached":null,"result":null}`,
		`null`,
		`{"id":"a"}x`,
		`{"id":"a"}{}`,
		`{"id":"a","result":{}}}`,
		`{"id":"a",}`,
		`{"id":"a" "status":"b"}`,
		`{"result":}`,
		`{"result":{},"id":"a"}`,
		`{"extra":1,"id":"a"}`,
		`{"id":1}`,
		`{"cached":"true"}`,
		`{"cached":tru}`,
		`{"cached":truex}`,
		`{"result":"str"}`,
		`{"result":01}`,
		`{"result":-}`,
		`{"result":1.}`,
		`{"result":1e}`,
		`{"result":[1.5e+3,-0.0,2E-7,0,-12]}`,
		`{"result":"\u12"}`,
		`{"result":"\uZZZZ"}`,
		`{"result":"\x"}`,
		"{\"id\":\"a\x01\"}",
		"{\"result\":\"\t\"}",
	} {
		f.Add([]byte(seed))
	}
	starts := []func() JobStatus{
		func() JobStatus { return JobStatus{} },
		func() JobStatus {
			return JobStatus{ID: "old-id", Name: "old-name", Status: StatusQueued, Cached: true, Hash: "old-hash",
				Submitted: "old-time", Error: "old-error", Result: json.RawMessage([]byte(`{"old":true}`))}
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, start := range starts {
			want := start()
			wantErr := json.Unmarshal(data, &want)
			got := start()
			gotErr := DecodeStatus(data, &got)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("DecodeStatus of %q: error %v, encoding/json %v", data, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) || !bytes.Equal(got.Result, want.Result) {
				t.Fatalf("DecodeStatus of %q:\n got %+v\nwant %+v", data, got, want)
			}
		}
	})
}

// FuzzValidJSON: validJSON accepts exactly what json.Valid accepts.
func FuzzValidJSON(f *testing.F) {
	for _, seed := range append(statusSeeds(f), payloadSeeds(f)...) {
		f.Add(seed)
	}
	for _, seed := range []string{
		` {"a" : [1, 2.5e-3, -0, true, false, null, "x"] } ` + "\n",
		"\t[]\r\n",
		`{"a":1}x`,
		`{"a":1}{}`,
		`{"a":1,}`,
		`[1,]`,
		`[,1]`,
		`{"a"}`,
		`{1:2}`,
		`01`, `-`, `-01`, `1.`, `.5`, `+1`, `1e`, `1e+`, `1E-7`, `0.0e0`, `-0.5E+10`,
		`"\u12"`, `"\uZZZZ"`, `"\u00e9\uD800"`, `"\x"`, `"\/\b\f\n\r\t\"\\"`,
		"\"a\x01\"", "\"\xff\xfe\"", "\"\x7f\"",
		`tru`, `truex`, `nul`, `false `, `null`,
		``, ` `, `""`, `"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := validJSON(data), json.Valid(data); got != want {
			t.Fatalf("validJSON(%q) = %v, json.Valid %v", data, got, want)
		}
	})
}

// TestValidJSONNestingLimit pins encoding/json's nesting limit: 10,000
// levels of arrays or objects are valid and 10,001 are not, and a status
// result counts the status object as one level.
func TestValidJSONNestingLimit(t *testing.T) {
	nest := func(levels int) (arrays, objects []byte) {
		arrays = []byte(strings.Repeat("[", levels) + strings.Repeat("]", levels))
		objects = []byte(strings.Repeat(`{"a":`, levels) + "1" + strings.Repeat("}", levels))
		return arrays, objects
	}
	for _, levels := range []int{maxNesting, maxNesting + 1} {
		arrays, objects := nest(levels)
		for _, data := range [][]byte{arrays, objects} {
			if got, want := validJSON(data), levels <= 10000; got != want || json.Valid(data) != want {
				t.Errorf("%d levels: validJSON %v, json.Valid %v, want %v", levels, got, json.Valid(data), want)
			}
		}
		result, _ := nest(levels - 1)
		body := append(append([]byte(`{"id":"a","result":`), result...), '}')
		var got, want JobStatus
		gotErr, wantErr := DecodeStatus(body, &got), json.Unmarshal(body, &want)
		if errText(gotErr) != errText(wantErr) || (gotErr == nil) != (levels <= 10000) || !bytes.Equal(got.Result, want.Result) {
			t.Errorf("status nested %d levels: DecodeStatus error %v, encoding/json %v", levels, gotErr, wantErr)
		}
	}
}
