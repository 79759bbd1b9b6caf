package main

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/benchtab"
)

func TestDropColumnsStripsTableITimings(t *testing.T) {
	rows := []benchtab.Row{{
		Approach: "memory-driven", Name: "qsup", Qubits: 12,
		ExactMaxDD: 100, ExactTime: 7e6, ApproxMaxDD: 50, Rounds: 3,
		RoundFid: 0.9, ApproxTime: 3e6, FinalFid: 0.8, FidBound: 0.7,
		TrueFidelity: 0.85, ApproxFailed: "a, b",
	}}
	got, err := dropColumns(benchtab.FormatCSV(rows), timingColumns)
	if err != nil {
		t.Fatal(err)
	}
	want := "approach,benchmark,qubits,exact_max_dd,exact_timeout,approx_max_dd,rounds,f_round,f_final,fid_bound,true_fidelity,error\n" +
		`memory-driven,qsup,12,100,false,50,3,0.9,0.800000,0.700000,0.850000,"a, b"` + "\n"
	if got != want {
		t.Errorf("stripped CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestDropColumnsRejectsMissingHeader(t *testing.T) {
	renamed := strings.Replace(benchtab.FormatCSV(nil), "approx_seconds", "approx_s", 1)
	_, err := dropColumns(renamed, timingColumns)
	if err == nil || !strings.Contains(err.Error(), `"approx_seconds"`) {
		t.Fatalf("renamed timing column: err = %v, want one naming approx_seconds", err)
	}
}

func TestGoldenRejectsOtherScalesSeedsAndModes(t *testing.T) {
	for _, tc := range []struct {
		mode, scale string
		seed        int64
	}{
		{"check", benchtab.PresetMedium, 0},
		{"update", benchtab.PresetPaper, 0},
		{"check", benchtab.PresetSmall, 1},
		{"verify", benchtab.PresetSmall, 0},
	} {
		// Each case must fail before any simulation or file write.
		err := runGolden(tc.mode, env{scale: tc.scale, opts: benchtab.RunOptions{BaseSeed: tc.seed}})
		if err == nil {
			t.Errorf("runGolden(%q) at -scale %s -seed %d accepted", tc.mode, tc.scale, tc.seed)
		}
	}
}

// TestGoldensAreFresh is `make atlas-check` in-process: it regenerates
// docs/REPORT.md, docs/ATLAS.md and internal/atlas/winners_gen.go and fails
// naming each committed file that differs, so a change that moves a golden
// fails `go test ./...` too.
func TestGoldensAreFresh(t *testing.T) {
	goldens, _, err := renderGoldens(env{
		scale: benchtab.PresetSmall,
		opts:  benchtab.RunOptions{Parallel: runtime.GOMAXPROCS(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGoldens("../..", goldens); err != nil {
		t.Error(err)
	}
}
