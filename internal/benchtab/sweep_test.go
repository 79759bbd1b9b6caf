package benchtab

import (
	"context"
	"strings"
	"testing"

	"repro/internal/shor"
	"repro/internal/supremacy"
)

func TestSweepThreshold(t *testing.T) {
	cfg := supremacy.Config{Rows: 2, Cols: 4, Depth: 12, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	points, err := SweepThreshold(context.Background(), c, []int{32, 64, 128}, 0.975, 1.1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// Higher thresholds trigger fewer (or equal) rounds and keep more
	// fidelity.
	for i := 1; i < len(points); i++ {
		if points[i].Rounds > points[i-1].Rounds {
			t.Errorf("rounds increased with threshold: %v then %v",
				points[i-1], points[i])
		}
		if points[i].FinalFid < points[i-1].FinalFid-1e-9 {
			t.Errorf("fidelity decreased with threshold: %v then %v",
				points[i-1].FinalFid, points[i].FinalFid)
		}
	}
	for _, p := range points {
		if p.ExactMax == 0 || p.MaxDD == 0 {
			t.Errorf("missing sizes in %+v", p)
		}
	}
}

func TestSweepRoundFidelity(t *testing.T) {
	inst, err := shor.NewInstance(21, 2)
	if err != nil {
		t.Fatal(err)
	}
	points, err := SweepRoundFidelity(context.Background(), inst, []float64{0.71, 0.9, 0.95}, 0.5, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// MaxRounds grows with f_round: ⌊log_0.71(0.5)⌋=2, log_0.9=6, log_0.95=13.
	if points[0].Rounds > 2 || points[1].Rounds > 6 || points[2].Rounds > 13 {
		t.Errorf("round counts exceed budgets: %+v", points)
	}
	for _, p := range points {
		if p.FidBound < 0.5-1e-9 {
			t.Errorf("%s: bound %v below f_final", p.Label, p.FidBound)
		}
	}
}

func TestSweepFormatters(t *testing.T) {
	points := []SweepPoint{{
		Label: "threshold=64", Params: `memory {"threshold":64,"round_fidelity":0.975,"growth":1.05}`,
		Rounds: 3, MaxDD: 100, FinalFid: 0.9,
		FidBound: 0.88, ExactMax: 200,
	}}
	md := FormatSweepMarkdown(points)
	if !strings.Contains(md, "| Params |") || !strings.Contains(md, "threshold=64") || !strings.Contains(md, "| 3 |") {
		t.Errorf("markdown:\n%s", md)
	}
}
