package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestReportedFidelityIsProductOfRounds pins the fidelity accounting of every
// registered strategy, run directly and wrapped in "reorder": the reported
// EstimatedFidelity is the product of the rounds' achieved fidelities, and it
// never falls below FidelityBound, the product of the rounds' targets.
func TestReportedFidelityIsProductOfRounds(t *testing.T) {
	// Parameters per registered strategy, chosen so the approximating ones
	// fire several rounds on the circuits below. A newly registered
	// strategy fails the test until it is listed here.
	params := map[string][]string{
		"exact": {``},
		"memory": {
			`{"threshold": 24, "round_fidelity": 0.95, "growth": 1.5}`,
			`{"threshold": 48, "round_fidelity": 0.99}`,
		},
		"replace": {
			`{"node_budget": 24}`,
			`{"node_budget": 40, "fidelity_floor": 0.3, "kinds": ["promote"]}`,
		},
		"fidelity": {
			`{"final_fidelity": 0.5, "round_fidelity": 0.9}`,
			`{"final_fidelity": 0.8, "round_fidelity": 0.97}`,
		},
	}
	wrappers := []string{`{"order": "scored"}`, `{"sift": true, "sift_threshold": 16}`}
	circuits := []*circuit.Circuit{
		gen.RandomCliffordT(7, 160, 1),
		gen.RandomCliffordT(8, 200, 2),
		gen.QAOAMaxCut(7, 2, 3),
	}

	for _, name := range core.StrategyNames() {
		if name == "reorder" {
			continue // covered as the wrapper of every other strategy
		}
		list, ok := params[name]
		if !ok {
			t.Errorf("registered strategy %q has no parameters in this test", name)
			continue
		}
		rounds := 0
		for _, p := range list {
			type run struct {
				label  string
				name   string
				params json.RawMessage
			}
			runs := []run{{name + p, name, json.RawMessage(p)}}
			for _, w := range wrappers {
				var wp map[string]any
				if err := json.Unmarshal([]byte(w), &wp); err != nil {
					t.Fatal(err)
				}
				wp["inner"] = name
				if p != "" {
					wp["inner_params"] = json.RawMessage(p)
				}
				raw, err := json.Marshal(wp)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, run{"reorder" + string(raw), "reorder", raw})
			}
			for _, r := range runs {
				for i, c := range circuits {
					label := fmt.Sprintf("%s on circuit %d (%s)", r.label, i, c.Name)
					strat, err := core.NewStrategyByName(r.name, r.params)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					res, err := New().Run(c, Options{Strategy: strat})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					rounds += len(res.Rounds)
					checkFidelityAccounting(t, label, res)
				}
			}
		}
		t.Logf("%s: %d rounds", name, rounds)
		if name != "exact" && rounds == 0 {
			t.Errorf("strategy %q never approximated: the property is vacuous for it", name)
		}
	}
}

func checkFidelityAccounting(t *testing.T, label string, res *Result) {
	t.Helper()
	prod := 1.0
	for _, r := range res.Rounds {
		prod *= r.Report.Achieved
	}
	if math.Abs(res.EstimatedFidelity-prod) > 1e-12*prod {
		t.Errorf("%s: EstimatedFidelity %v, product of %d achieved round fidelities %v",
			label, res.EstimatedFidelity, len(res.Rounds), prod)
	}
	if res.EstimatedFidelity < res.FidelityBound {
		t.Errorf("%s: EstimatedFidelity %v below FidelityBound %v",
			label, res.EstimatedFidelity, res.FidelityBound)
	}
}
