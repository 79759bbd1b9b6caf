package benchtab

import (
	"context"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/order"
)

func TestSweepOrderings(t *testing.T) {
	pairs := circuit.New(10, "pairs")
	for i := 0; i < 5; i++ {
		pairs.H(i)
		pairs.CX(i, i+5)
	}
	circs := []*circuit.Circuit{pairs, gen.QFT(6)}
	points, err := SweepOrderings(context.Background(), circs,
		[]string{order.Reversed, order.Scored}, false, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	// Row 0 of each circuit is the identity baseline: zero saved by
	// definition.
	for i := 0; i < len(points); i += 3 {
		if points[i].Order != order.Identity || points[i].NodesSaved != 0 {
			t.Fatalf("baseline row %d = %+v", i, points[i])
		}
		for j := i; j < i+3; j++ {
			if points[j].IdentityMaxDD != points[i].MaxDD {
				t.Fatalf("row %d baseline mismatch: %+v vs %+v", j, points[j], points[i])
			}
		}
	}
	// The pairs circuit must show a scored-order win.
	var scored *OrderPoint
	for i := range points {
		if points[i].Circuit == "pairs" && points[i].Order == order.Scored {
			scored = &points[i]
		}
	}
	if scored == nil || scored.NodesSaved <= 0 {
		t.Fatalf("scored ordering saved nothing on pairs: %+v", scored)
	}

	md := FormatOrderMarkdown(points)
	if !strings.Contains(md, "| pairs | scored |") {
		t.Fatalf("markdown missing scored row:\n%s", md)
	}
}

// TestSweepOrderingsParallelMatchesSerial: rows must be identical whether
// the sweep fans out or runs serially (the determinism bar every batch
// driver in this repo clears).
func TestSweepOrderingsParallelMatchesSerial(t *testing.T) {
	pairs := circuit.New(8, "pairs")
	for i := 0; i < 4; i++ {
		pairs.H(i)
		pairs.CX(i, i+4)
	}
	circs := []*circuit.Circuit{pairs, gen.QFT(5)}
	serial, err := SweepOrderings(context.Background(), circs, []string{order.Scored}, true, RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepOrderings(context.Background(), circs, []string{order.Scored}, true, RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		a, b := serial[i], par[i]
		a.Runtime, b.Runtime = 0, 0 // wall clock legitimately differs
		if a != b {
			t.Fatalf("row %d differs: serial %+v, parallel %+v", i, serial[i], par[i])
		}
	}
}
