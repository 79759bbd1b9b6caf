package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dd"
)

func TestBuiltinStrategiesRegistered(t *testing.T) {
	names := StrategyNames()
	for _, want := range []string{"exact", "memory", "fidelity", "replace"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin %q missing from registry: %v", want, names)
		}
	}
}

func TestNewStrategyByNameBuildsFreshInstances(t *testing.T) {
	params := json.RawMessage(`{"threshold": 64, "round_fidelity": 0.95}`)
	a, err := NewStrategyByName("memory", params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStrategyByName("memory", params)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("factory returned a shared instance; strategies are stateful per run")
	}
	md, ok := a.(*MemoryDriven)
	if !ok {
		t.Fatalf("memory strategy has type %T", a)
	}
	if md.Threshold != 64 || md.RoundFidelity != 0.95 {
		t.Errorf("params not applied: %+v", md)
	}
	if err := md.Init(100, nil); err != nil {
		t.Fatalf("built strategy rejects Init: %v", err)
	}
}

func TestNewStrategyByNameDefaults(t *testing.T) {
	s, err := NewStrategyByName("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "exact" {
		t.Errorf("empty name resolved to %q, want exact", s.Name())
	}
}

func TestNewStrategyByNameUnknown(t *testing.T) {
	_, err := NewStrategyByName("no-such-strategy", nil)
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if !strings.Contains(err.Error(), "exact") {
		t.Errorf("error should list registered names: %v", err)
	}
}

func TestNewStrategyByNameBadParams(t *testing.T) {
	if _, err := NewStrategyByName("memory", json.RawMessage(`{"threshold": "big"}`)); err == nil {
		t.Fatal("malformed params accepted")
	}
}

func TestStrategyParamsStrict(t *testing.T) {
	for _, empty := range []string{``, `null`, `{}`} {
		if _, err := NewStrategyByName("exact", json.RawMessage(empty)); err != nil {
			t.Errorf("exact with params %q: %v", empty, err)
		}
	}
	for _, bad := range []string{`{"x":1}`, `[]`, `{} {}`} {
		if _, err := NewStrategyByName("exact", json.RawMessage(bad)); err == nil {
			t.Errorf("exact accepted params %s", bad)
		}
	}
	// A misspelt key names itself instead of surfacing as the default it
	// left in place ("threshold 0 must be positive").
	_, err := NewStrategyByName("memory", json.RawMessage(`{"threshhold":16}`))
	if err == nil || !strings.Contains(err.Error(), "threshhold") {
		t.Errorf("misspelt memory key: %v", err)
	}
}

func TestFidelityParamsPlacementControls(t *testing.T) {
	s, err := NewStrategyByName("fidelity", json.RawMessage(
		`{"final_fidelity": 0.5, "round_fidelity": 0.9, "locations": [3, 7]}`))
	if err != nil {
		t.Fatal(err)
	}
	fd := s.(*FidelityDriven)
	if err := fd.Init(20, nil); err != nil {
		t.Fatal(err)
	}
	if got := fd.planned; len(got) == 0 || got[0] != 3 {
		t.Errorf("explicit locations ignored: %v", got)
	}
}

func TestRegisterStrategyRejectsDuplicatesAndNil(t *testing.T) {
	if err := RegisterStrategy("exact", func(json.RawMessage) (Strategy, error) { return Exact{}, nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := RegisterStrategy("", func(json.RawMessage) (Strategy, error) { return Exact{}, nil }); err == nil {
		t.Error("empty name accepted")
	}
	if err := RegisterStrategy("nil-factory", nil); err == nil {
		t.Error("nil factory accepted")
	}
}

// TestDeleteKindIsInternal: the delete pass's zero edit shares the
// SubstituteKind type with the public substitutes, but no entry point
// accepts it as a replace-strategy kind.
func TestDeleteKindIsInternal(t *testing.T) {
	name := string(substituteDelete)
	if _, err := ParseSubstituteKinds([]string{name}); err == nil {
		t.Errorf("ParseSubstituteKinds accepted %q", name)
	}
	s := &ReplaceDriven{NodeBudget: 16, Kinds: []SubstituteKind{SubstituteCollapse, substituteDelete}}
	if err := s.Init(10, nil); err == nil {
		t.Errorf("ReplaceDriven.Init accepted kind %q", name)
	}
	if _, err := NewStrategyByName("replace", json.RawMessage(`{"node_budget":16,"kinds":["`+name+`"]}`)); err == nil {
		t.Errorf("replace strategy params accepted kind %q", name)
	}
}

// TestInitResetsRunState: every builtin registry strategy, Init'ed and run
// once before, runs like a fresh instance after the next Init.
func TestInitResetsRunState(t *testing.T) {
	const gates = 12
	// run Inits s and drives it over a seeded sequence of dense random
	// states on a fresh manager, recording every round it performs.
	run := func(s Strategy, totalGates int) []string {
		t.Helper()
		if err := s.Init(totalGates, nil); err != nil {
			t.Fatal(err)
		}
		m := dd.New()
		rng := rand.New(rand.NewSource(29))
		var trace []string
		for i := 0; i < totalGates; i++ {
			state := randomState(t, m, 5, 0.9, rng)
			_, round, err := s.AfterGate(m, i, dd.CountVNodes(state), state)
			if err != nil {
				t.Fatal(err)
			}
			if round != nil {
				trace = append(trace, fmt.Sprintf("%d: %d -> %d at %.12f",
					round.GateIndex, round.Report.SizeBefore, round.Report.SizeAfter, round.Report.Achieved))
			}
		}
		return trace
	}
	for name, params := range map[string]string{
		"exact":    ``,
		"memory":   `{"threshold":8,"round_fidelity":0.9}`,
		"fidelity": `{"final_fidelity":0.7,"round_fidelity":0.9}`,
		"replace":  `{"node_budget":8,"fidelity_floor":0.6}`,
	} {
		t.Run(name, func(t *testing.T) {
			build := func() Strategy {
				s, err := NewStrategyByName(name, json.RawMessage(params))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			want := run(build(), gates)
			if name != "exact" && len(want) == 0 {
				t.Fatal("no approximation rounds: the test drives nothing")
			}
			reused := build()
			run(reused, 2*gates) // an earlier run over a longer circuit
			if got := run(reused, gates); !reflect.DeepEqual(got, want) {
				t.Errorf("re-Init'ed instance ran\n%v\nfresh instance ran\n%v", got, want)
			}
		})
	}
}
