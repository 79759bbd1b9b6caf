package benchtab

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
)

// TestStrategyParamsSchema pins the strategy_params wire schema: each
// builtin strategy decodes its parameters straight into its own struct, so
// the struct's JSON tags are the schema. The params strings below are the
// ones perfbench's job mix, the atlas grid and this package send; each must
// decode to the same field values the strategies ran with before the
// struct fields carried the tags.
func TestStrategyParamsSchema(t *testing.T) {
	memory := func(th int, fround, growth float64) core.Strategy {
		return &core.MemoryDriven{Threshold: th, RoundFidelity: fround, Growth: growth}
	}
	fidelity := func(ffinal, fround float64, locations ...int) core.Strategy {
		return &core.FidelityDriven{FinalFidelity: ffinal, RoundFidelity: fround, Locations: locations}
	}
	replace := func(budget int, floor float64) core.Strategy {
		return &core.ReplaceDriven{NodeBudget: budget, FidelityFloor: floor}
	}
	reorder := func(p core.ReorderPolicy, inner core.Strategy) core.Strategy { return order.NewReorder(p, inner) }
	for _, tc := range []struct {
		strategy, params string
		want             core.Strategy
	}{
		// perfbench/jobs.go: the paper workload's replace rows and the
		// serve-mix templates.
		{"replace", `{"node_budget":4096,"fidelity_floor":0.9}`, replace(4096, 0.9)},
		{"fidelity", `{"final_fidelity":0.9,"round_fidelity":0.98}`, fidelity(0.9, 0.98)},
		{"memory", `{"threshold":256,"round_fidelity":0.98,"growth":2}`, memory(256, 0.98, 2)},
		{"replace", `{"node_budget":512,"fidelity_floor":0.9}`, replace(512, 0.9)},
		{"reorder", `{"order":"scored","sift":true,"sift_threshold":64}`,
			reorder(core.ReorderPolicy{Static: order.Scored, Sift: true, SiftThreshold: 64}, core.Exact{})},
		{"reorder", `{"order":"scored","sift":true,"sift_threshold":64,"inner":"memory","inner_params":{"threshold":128,"round_fidelity":0.98}}`,
			reorder(core.ReorderPolicy{Static: order.Scored, Sift: true, SiftThreshold: 64}, memory(128, 0.98, 0))},
		// atlas.go's grid (one of each shape) and the committed winners.
		{"memory", `{"threshold":16,"round_fidelity":0.98,"growth":2}`, memory(16, 0.98, 2)},
		{"fidelity", `{"final_fidelity":0.90,"round_fidelity":0.995}`, fidelity(0.9, 0.995)},
		{"replace", `{"node_budget":32,"fidelity_floor":0.85}`, replace(32, 0.85)},
		{"reorder", `{"order":"reversed"}`, reorder(core.ReorderPolicy{Static: order.Reversed}, core.Exact{})},
		{"reorder", `{"order":"scored","inner":"fidelity","inner_params":{"final_fidelity":0.98,"round_fidelity":0.995}}`,
			reorder(core.ReorderPolicy{Static: order.Scored}, fidelity(0.98, 0.995))},
		{"reorder", `{"order":"reversed","inner":"replace","inner_params":{"node_budget":16,"fidelity_floor":0.85}}`,
			reorder(core.ReorderPolicy{Static: order.Reversed}, replace(16, 0.85))},
		{"reorder", `{"order":"scored","inner":"memory","inner_params":{"threshold":32,"round_fidelity":0.98,"growth":2}}`,
			reorder(core.ReorderPolicy{Static: order.Scored}, memory(32, 0.98, 2))},
		// This package: Table I, E8/E9 and E10 configs.
		{"memory", `{"threshold":1024,"round_fidelity":0.975,"growth":1.05}`, memory(1024, 0.975, 1.05)},
		{"fidelity", `{"final_fidelity":0.5,"round_fidelity":0.9,"locations":[28,29,31,34,38,43,49,56,64]}`,
			fidelity(0.5, 0.9, 28, 29, 31, 34, 38, 43, 49, 56, 64)},
		{"reorder", `{"order":"identity"}`, reorder(core.ReorderPolicy{Static: order.Identity}, core.Exact{})},
		{"reorder", `{"order":"scored","sift":true}`, reorder(core.ReorderPolicy{Static: order.Scored, Sift: true}, core.Exact{})},
		// Defaults: an empty reorder runs the identity order around exact.
		{"reorder", ``, reorder(core.ReorderPolicy{Static: order.Identity}, core.Exact{})},
	} {
		got, err := core.NewStrategyByName(tc.strategy, json.RawMessage(tc.params))
		if err != nil {
			t.Errorf("%s %s: %v", tc.strategy, tc.params, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %s decoded to %+v, want %+v", tc.strategy, tc.params, got, tc.want)
		}
	}
}

// TestStrategyParamsRejectUnknownKeys: a key that is not a tagged field
// fails, including the names of a strategy's run state and the Go name of
// a field whose tag differs.
func TestStrategyParamsRejectUnknownKeys(t *testing.T) {
	for _, strategy := range []string{"memory", "fidelity", "replace", "reorder"} {
		for _, key := range []string{"current", "schedule", "planned", "fid", "exhausted", "policy", "static", "x"} {
			params := `{"` + key + `":1}`
			_, err := core.NewStrategyByName(strategy, json.RawMessage(params))
			if err == nil || !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("%s %s: error %v, want an unknown field", strategy, params, err)
			}
		}
	}
}

// TestConfigParamsBytes: the params strings this package marshals from the
// strategy structs are byte for byte the ones the Table I and sweep tables
// sent before the structs carried the tags.
func TestConfigParamsBytes(t *testing.T) {
	e9 := []int{42, 43, 45, 48, 52, 57, 63, 70, 78, 87, 97, 108, 120}
	for _, tc := range []struct {
		got  string
		want string
	}{
		// Table I memory-driven rows: small, medium and paper presets.
		{mustJSON(core.MemoryDriven{Threshold: 1024, RoundFidelity: 0.99, Growth: 1.05}), `{"threshold":1024,"round_fidelity":0.99,"growth":1.05}`},
		{mustJSON(core.MemoryDriven{Threshold: 1024, RoundFidelity: 0.975, Growth: 1.05}), `{"threshold":1024,"round_fidelity":0.975,"growth":1.05}`},
		{mustJSON(core.MemoryDriven{Threshold: 1024, RoundFidelity: 0.95, Growth: 1.05}), `{"threshold":1024,"round_fidelity":0.95,"growth":1.05}`},
		{mustJSON(core.MemoryDriven{Threshold: 16384, RoundFidelity: 0.99, Growth: 1.05}), `{"threshold":16384,"round_fidelity":0.99,"growth":1.05}`},
		{mustJSON(core.MemoryDriven{Threshold: 262144, RoundFidelity: 0.975, Growth: 2}), `{"threshold":262144,"round_fidelity":0.975,"growth":2}`},
		// Table I fidelity-driven rows (small preset, Shor 15 and 33).
		{mustJSON(core.FidelityDriven{FinalFidelity: 0.5, RoundFidelity: 0.9, Locations: []int{28, 29, 31, 34, 38, 43, 49, 56, 64}}),
			`{"final_fidelity":0.5,"round_fidelity":0.9,"locations":[28,29,31,34,38,43,49,56,64]}`},
		{mustJSON(core.FidelityDriven{FinalFidelity: 0.5, RoundFidelity: 0.9, Locations: e9}),
			`{"final_fidelity":0.5,"round_fidelity":0.9,"locations":[42,43,45,48,52,57,63,70,78,87,97,108,120]}`},
		// E8 threshold sweep.
		{mustJSON(core.MemoryDriven{Threshold: 256, RoundFidelity: 0.975, Growth: 1.05}), `{"threshold":256,"round_fidelity":0.975,"growth":1.05}`},
		{mustJSON(core.MemoryDriven{Threshold: 4096, RoundFidelity: 0.975, Growth: 1.05}), `{"threshold":4096,"round_fidelity":0.975,"growth":1.05}`},
		// E9 round-fidelity sweep.
		{mustJSON(core.FidelityDriven{FinalFidelity: 0.5, RoundFidelity: 0.51, Locations: e9}),
			`{"final_fidelity":0.5,"round_fidelity":0.51,"locations":[42,43,45,48,52,57,63,70,78,87,97,108,120]}`},
		{mustJSON(core.FidelityDriven{FinalFidelity: 0.5, RoundFidelity: 0.99, Locations: e9}),
			`{"final_fidelity":0.5,"round_fidelity":0.99,"locations":[42,43,45,48,52,57,63,70,78,87,97,108,120]}`},
		// E10 ordering sweep.
		{mustJSON(core.ReorderPolicy{Static: order.Identity}), `{"order":"identity"}`},
		{mustJSON(core.ReorderPolicy{Static: order.Reversed, Sift: true}), `{"order":"reversed","sift":true}`},
		{mustJSON(core.ReorderPolicy{Static: order.Scored}), `{"order":"scored"}`},
		{mustJSON(core.ReorderPolicy{Static: order.Scored, Sift: true}), `{"order":"scored","sift":true}`},
	} {
		if tc.got != tc.want {
			t.Errorf("marshalled %s, want %s", tc.got, tc.want)
		}
	}
}
