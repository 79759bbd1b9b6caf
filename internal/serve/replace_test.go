package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// replaceRequest is the entangled-pairs workload submitted under the
// node-replacement strategy.
func replaceRequest(n int, params string) JobRequest {
	req := JobRequest{Name: "pairs-replace", Qubits: n, Strategy: "replace",
		StrategyParams: json.RawMessage(params)}
	for i := 0; i < n/2; i++ {
		req.Gates = append(req.Gates,
			GateSpec{Name: "h", Target: i},
			GateSpec{Name: "x", Target: i + n/2, Controls: []int{i}})
	}
	return req
}

// TestReplaceStrategyOverHTTP submits the pairs workload under
// strategy=replace twice. Without a floor the node budget is a hard
// ceiling: every round must end at or under it. With a floor the floor
// takes precedence — rounds still shrink, but may stop above the budget
// rather than overdraw the loss allowance — and the estimated fidelity
// must respect it.
func TestReplaceStrategyOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})

	fetch := func(params string) ResultPayload {
		t.Helper()
		st := c.await(c.submit(replaceRequest(12, params), http.StatusAccepted).ID)
		if st.Status != StatusDone {
			t.Fatalf("replace job %s: %+v", params, st)
		}
		var res ResultPayload
		if err := json.Unmarshal(st.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Strategy != "replace" {
			t.Fatalf("strategy name = %q", res.Strategy)
		}
		if len(res.Rounds) == 0 {
			t.Fatalf("no approximation rounds at budget 24 (%s): %+v", params, res)
		}
		replaced := 0
		for _, r := range res.Rounds {
			replaced += r.ReplacedNodes
			if r.SizeAfter >= r.SizeBefore {
				t.Fatalf("round did not shrink the state: %+v", r)
			}
		}
		if replaced == 0 {
			t.Fatalf("no replaced_nodes in any round (%s): %+v", params, res.Rounds)
		}
		return res
	}

	// No floor: the budget is a hard ceiling.
	res := fetch(`{"node_budget":24}`)
	for _, r := range res.Rounds {
		if r.SizeAfter > 24 {
			t.Fatalf("round ended above the node budget: %+v", r)
		}
	}

	// With a floor the floor wins over the budget, and the tracked
	// estimate (the product of achieved round fidelities) must respect it.
	res = fetch(`{"node_budget":24,"fidelity_floor":0.5}`)
	if res.EstimatedFidelity < 0.5-1e-9 || res.EstimatedFidelity > 1+1e-9 {
		t.Fatalf("estimated fidelity %v outside the floor", res.EstimatedFidelity)
	}
}

// TestReplaceRoundsOverSSE checks the approximation events of a replace job
// carry the replaced_nodes field through the SSE replay.
func TestReplaceRoundsOverSSE(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	st := c.await(c.submit(replaceRequest(12, `{"node_budget":24}`), http.StatusAccepted).ID)
	if st.Status != StatusDone {
		t.Fatalf("job: %+v", st)
	}
	code, body := c.do("GET", "/v1/jobs/"+st.ID+"/events", nil)
	if code != http.StatusOK {
		t.Fatalf("events: HTTP %d", code)
	}
	if !strings.Contains(string(body), `"replaced_nodes"`) {
		t.Fatalf("no replaced_nodes in SSE replay:\n%s", body)
	}
	found := false
	for _, frame := range strings.Split(string(body), "\n\n") {
		for _, line := range strings.Split(frame, "\n") {
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var e Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatal(err)
			}
			if e.Type == EventApproximation && e.Round != nil && e.Round.ReplacedNodes > 0 {
				if e.Round.SizeBefore <= e.Round.SizeAfter || e.Round.Achieved <= 0 {
					t.Fatalf("malformed replace round event: %+v", e.Round)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no approximation event with replaced_nodes > 0 in SSE replay")
	}
}

// TestReplaceComposedUnderReorder runs replace as the inner strategy of the
// reorder wrapper over HTTP, which must compose through the registry without
// any serve-side special case.
func TestReplaceComposedUnderReorder(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := replaceRequest(12, "")
	req.Strategy = "reorder"
	req.StrategyParams = json.RawMessage(`{"order":"identity","inner":"replace","inner_params":{"node_budget":24}}`)
	st := c.await(c.submit(req, http.StatusAccepted).ID)
	if st.Status != StatusDone {
		t.Fatalf("composed job: %+v", st)
	}
	var res ResultPayload
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "reorder(identity)+replace" {
		t.Fatalf("strategy name = %q", res.Strategy)
	}
	replaced := 0
	for _, r := range res.Rounds {
		replaced += r.ReplacedNodes
	}
	if replaced == 0 {
		t.Fatalf("inner replace never ran under reorder: %+v", res.Rounds)
	}
}

// TestReplaceParamsValidatedAtSubmit rejects malformed replace params with a
// 400 at submission time (compile validates by building one instance).
func TestReplaceParamsValidatedAtSubmit(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct{ name, params string }{
		{"zero_budget", `{"node_budget":0}`},
		{"floor_above_one", `{"node_budget":16,"fidelity_floor":1.5}`},
		{"unknown_kind", `{"node_budget":16,"kinds":["vanish"]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := replaceRequest(4, tc.params)
			resp := c.submit(req, http.StatusBadRequest)
			if resp.Error == "" {
				t.Fatalf("no error in %+v", resp)
			}
		})
	}
}

// TestReplaceHashDistinguishesParams: different replace parameters must hash
// to different content addresses (and identical ones must collide into the
// cache).
func TestReplaceHashDistinguishesParams(t *testing.T) {
	a, err := CanonicalHash(replaceRequest(8, `{"node_budget":16}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalHash(replaceRequest(8, `{"node_budget":32}`))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := CanonicalHash(replaceRequest(8, `{"node_budget":16}`))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different node budgets hash identically")
	}
	if a != a2 {
		t.Fatalf("identical submissions hash differently: %s vs %s", a, a2)
	}
}
