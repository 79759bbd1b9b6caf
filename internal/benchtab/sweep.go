package benchtab

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/shor"
)

// SweepPoint is one configuration of a hyper-parameter sweep (the series
// behind the paper's hyper-parameter discussion; sections E8/E9 of the
// cmd/experiments report).
type SweepPoint struct {
	Label string // swept value, e.g. "threshold=1024" or "fround=0.9"
	// Params is the full strategy configuration behind this row (registry
	// name plus every JSON parameter, not just the swept one), so sweep
	// tables are self-describing.
	Params    string
	Rounds    int
	MaxDD     int
	Runtime   time.Duration
	FinalFid  float64 // tracked fidelity product
	FidBound  float64
	ExactMax  int           // exact reference (same for all points)
	ExactTime time.Duration // exact reference runtime
}

// SweepThreshold runs the memory-driven strategy on one circuit across a
// range of thresholds at fixed f_round (E8): the exact reference and every
// threshold configuration are independent batch jobs.
func SweepThreshold(ctx context.Context, c *circuit.Circuit, thresholds []int, fround, growth float64, opts RunOptions) ([]SweepPoint, error) {
	cells := []cell{{name: "exact", circuit: c}}
	for _, th := range thresholds {
		cells = append(cells, cell{name: fmt.Sprintf("threshold=%d", th), circuit: c, registry: "memory",
			params: mustJSON(core.MemoryDriven{Threshold: th, RoundFidelity: fround, Growth: growth})})
	}
	return runSweep(ctx, cells, opts)
}

// SweepRoundFidelity runs the fidelity-driven strategy on a Shor instance
// across a range of per-round fidelities at fixed f_final (E9: few
// aggressive rounds vs many gentle ones), approximating at the inverse-QFT
// block boundaries.
func SweepRoundFidelity(ctx context.Context, inst *shor.Instance, frounds []float64, ffinal float64, opts RunOptions) ([]SweepPoint, error) {
	c := inst.BuildCircuit()
	locations := inst.IQFTBoundaries(c)
	cells := []cell{{name: "exact", circuit: c}}
	for _, fr := range frounds {
		cells = append(cells, cell{name: fmt.Sprintf("fround=%g", fr), circuit: c, registry: "fidelity",
			params: mustJSON(core.FidelityDriven{FinalFidelity: ffinal, RoundFidelity: fr, Locations: locations})})
	}
	return runSweep(ctx, cells, opts)
}

// runSweep runs cells[0] as the exact reference plus one cell per swept
// configuration and assembles the points in cell order.
func runSweep(ctx context.Context, cells []cell, opts RunOptions) ([]SweepPoint, error) {
	jrs, err := runAll(ctx, cells, opts)
	if err != nil {
		return nil, err
	}
	exact := jrs[0].Result
	out := make([]SweepPoint, 0, len(jrs)-1)
	for i, jr := range jrs[1:] {
		res := jr.Result
		out = append(out, SweepPoint{
			Label:     jr.Name,
			Params:    cells[i+1].config(),
			Rounds:    len(res.Rounds),
			MaxDD:     res.MaxDDSize,
			Runtime:   res.Runtime,
			FinalFid:  res.EstimatedFidelity,
			FidBound:  res.FidelityBound,
			ExactMax:  exact.MaxDDSize,
			ExactTime: exact.Runtime,
		})
	}
	return out, nil
}

// FormatSweepMarkdown renders sweep points as a markdown table.
func FormatSweepMarkdown(points []SweepPoint) string {
	var b strings.Builder
	b.WriteString("| Config | Params | Rounds | Max DD | Runtime | f_final | Bound | Exact Max DD | Exact Time |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, p := range points {
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %s | %.3f | %.3f | %d | %s |\n",
			p.Label, p.Params, p.Rounds, p.MaxDD, fmtDur(p.Runtime), p.FinalFid, p.FidBound,
			p.ExactMax, fmtDur(p.ExactTime))
	}
	return b.String()
}
