package benchtab

import (
	"context"
	"testing"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/shor"
	"repro/internal/sim"
)

// TestTrueFidelityIsTheRowsOwnRun: every small-preset Table I True F is the
// fidelity of the row's own run. A fresh run of the row's configuration,
// seeded like the row's job, reproduces the row's max DD size, round count
// and tracked fidelity, and its fidelity against a fresh exact run (across
// the two managers) equals the row's True F.
func TestTrueFidelityIsTheRowsOwnRun(t *testing.T) {
	suite, err := NewSuite(PresetSmall)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := RunOptions{Parallel: 2}
	memRows, err := suite.RunMemoryDriven(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	fidRows, err := suite.RunFidelityDriven(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Each benchmark is one exact job followed by one job per row, so the
	// job index (and with it the measurement seed) of a row follows from
	// the benchmark's position and the rows before it.
	type rerun struct {
		circ  *circuit.Circuit
		strat core.Strategy
		seed  int64
	}
	var memRuns []rerun
	job := 0
	for _, cs := range suite.Supremacy {
		circ, err := cs.Config.Generate()
		if err != nil {
			t.Fatal(err)
		}
		job++ // the exact reference
		for _, fround := range cs.Frounds {
			memRuns = append(memRuns, rerun{circ, &core.MemoryDriven{
				Threshold: cs.Threshold, RoundFidelity: fround, Growth: cs.Growth,
			}, batch.Seed(opts.BaseSeed, job)})
			job++
		}
	}
	var fidRuns []rerun
	job = 0
	for _, cs := range suite.Shor {
		inst, err := shor.NewInstance(cs.N, cs.A)
		if err != nil {
			t.Fatal(err)
		}
		circ := inst.BuildCircuit()
		fidRuns = append(fidRuns, rerun{circ, &core.FidelityDriven{
			FinalFidelity: cs.FinalFidelity, RoundFidelity: cs.RoundFidelity,
			Locations: inst.IQFTBoundaries(circ),
		}, batch.Seed(opts.BaseSeed, job+1)})
		job += 2
	}

	check := func(rows []Row, runs []rerun) {
		if len(rows) != len(runs) {
			t.Fatalf("%d rows, %d configurations", len(rows), len(runs))
		}
		for i, row := range rows {
			r := runs[i]
			exact, err := sim.Run(r.circ, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := sim.Run(r.circ, sim.Options{Strategy: r.strat, MeasurementSeed: r.seed})
			if err != nil {
				t.Fatal(err)
			}
			f, err := sim.Fidelity(exact, approx)
			if err != nil {
				t.Fatal(err)
			}
			if row.ApproxMaxDD != approx.MaxDDSize || row.Rounds != len(approx.Rounds) || row.FinalFid != approx.EstimatedFidelity {
				t.Errorf("%s f_round %g: row has max DD %d, %d rounds, tracked %v; its fresh run %d, %d, %v",
					row.Name, row.RoundFid, row.ApproxMaxDD, row.Rounds, row.FinalFid,
					approx.MaxDDSize, len(approx.Rounds), approx.EstimatedFidelity)
			}
			if row.TrueFidelity != f {
				t.Errorf("%s f_round %g: True F %.6f, but the row's run has %.6f", row.Name, row.RoundFid, row.TrueFidelity, f)
			}
		}
	}
	check(memRows, memRuns)
	check(fidRows, fidRuns)
}
