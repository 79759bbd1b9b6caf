package main

import (
	"strings"
	"testing"

	"repro/internal/atlas"
	"repro/internal/gen"
)

// TestNewStrategy covers how -strategy and -params build the run's strategy:
// through serve.ResolveRun, the resolver simd compiles submissions with.
func TestNewStrategy(t *testing.T) {
	const spec = "qsup:3x3:10:0"
	circ, err := gen.FromSpec(spec)
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
		{name: "auto with params", strategy: "auto", params: `{}`, wantErr: "strategy_params may not be set"},
		{name: "unknown field", strategy: "memory", params: `{"threshhold":64}`, wantErr: `unknown field "threshhold"`},
		{name: "unknown name", strategy: "mem", wantErr: "(registered: [exact"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runCLI("-gen", spec, "-strategy", tc.strategy, "-params", tc.params)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := "strategy:   " + tc.wantName + "\n"; !strings.Contains(out, want) {
				t.Errorf("output lacks %q:\n%s", want, out)
			}
			auto, hasAuto := strings.CutPrefix(out, "auto:       ")
			if hasAuto != (tc.wantAuto != "") || !strings.Contains(auto, tc.wantAuto) {
				t.Errorf("auto description in\n%s\nwant %q", out, tc.wantAuto)
			}
		})
	}
}

// TestAutoRejectsNoise: auto resolves from the noiseless statevector atlas,
// so ddsim rejects it with noise on either backend, as simd does.
func TestAutoRejectsNoise(t *testing.T) {
	base := []string{"-gen", "qaoa:6:2:1", "-strategy", "auto", "-noise", "depolarizing", "-noise-param", "p=0.01"}
	for name, args := range map[string][]string{
		"default backend": base,
		"statevector":     append(base[:len(base):len(base)], "-backend", "statevector"),
	} {
		t.Run(name, func(t *testing.T) {
			_, err := runCLI(args...)
			if err == nil || !strings.Contains(err.Error(), "noisy or density jobs must pick a strategy explicitly") {
				t.Fatalf("error %v, want the auto-with-noise rejection", err)
			}
		})
	}
}

// TestShotsOutputIsReproducible: the -shots histogram prints most frequent
// first, ties by index, so two runs print the same lines, including which
// outcomes the 32-line listing keeps when there are more.
func TestShotsOutputIsReproducible(t *testing.T) {
	args := []string{"-gen", "qft:6", "-noise", "depolarizing", "-noise-param", "p=0.05", "-shots", "256"}
	first, err := runCLI(args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "more outcomes)") {
		t.Fatalf("want more than 32 outcomes, got\n%s", first)
	}
	for i := 0; i < 3; i++ {
		again, err := runCLI(args...)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := stripRuntime(first), stripRuntime(again); a != b {
			t.Fatalf("run %d printed\n%s\nthe first run printed\n%s", i+2, b, a)
		}
	}
}

// stripRuntime drops the wall-clock line, the one line that may differ.
func stripRuntime(out string) string {
	var kept []string
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "runtime:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

func runCLI(args ...string) (string, error) {
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}
