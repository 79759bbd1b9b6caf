package main

import (
	"strings"
	"testing"

	"repro/internal/atlas"
	"repro/internal/gen"
)

func TestNewStrategy(t *testing.T) {
	circ, err := gen.FromSpec("qsup:3x3:10:0")
	if err != nil {
		t.Fatal(err)
	}
	class := gen.Classify(circ)
	win := atlas.Resolve(class)
	cases := []struct {
		name, strategy, params string
		wantName               string // Strategy.Name() on success
		wantAuto               string // substring of the auto description
		wantErr                string // substring of the error, "" for success
	}{
		{name: "exact", strategy: "exact", wantName: "exact"},
		{name: "memory", strategy: "memory", params: `{"threshold":64,"round_fidelity":0.9}`, wantName: "memory-driven"},
		{name: "replace", strategy: "replace", params: `{"node_budget":16}`, wantName: "replace"},
		{name: "reorder", strategy: "reorder", params: `{"order":"scored","inner":"memory","inner_params":{"threshold":64,"round_fidelity":0.9}}`, wantName: "reorder(scored)+memory-driven"},
		{name: "auto", strategy: "auto", wantName: "reorder(scored)+exact", wantAuto: "class=" + class + " -> " + win.Base},
		{name: "auto with params", strategy: "auto", params: `{}`, wantErr: "-params may not be set"},
		{name: "unknown field", strategy: "memory", params: `{"threshhold":64}`, wantErr: `unknown field "threshhold"`},
		{name: "unknown name", strategy: "mem", wantErr: "(registered: [exact"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, auto, err := newStrategy(tc.strategy, tc.params, circ)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantName != "" && st.Name() != tc.wantName {
				t.Errorf("strategy %q, want %q", st.Name(), tc.wantName)
			}
			if !strings.Contains(auto, tc.wantAuto) || (tc.wantAuto == "") != (auto == "") {
				t.Errorf("auto description %q, want %q", auto, tc.wantAuto)
			}
		})
	}
}
