package benchtab

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/order"
)

// OrderPoint is one circuit × ordering cell of an ordering sweep: the
// Table-1-style size metrics plus the nodes saved against the identity
// order on the same circuit.
type OrderPoint struct {
	Circuit string
	Order   string
	// Params is the full reorder-strategy configuration behind this row
	// (registry name plus JSON ordering and sift mode), so ordering tables
	// are self-describing.
	Params  string
	MaxDD   int
	FinalDD int
	Runtime time.Duration
	// IdentityMaxDD is the identity-order peak for the same circuit;
	// NodesSaved = IdentityMaxDD − MaxDD (negative when the ordering hurt).
	IdentityMaxDD int
	NodesSaved    int
	// SiftPasses counts dynamic passes (non-zero only when sift is on).
	SiftPasses int
}

// SweepOrderings runs every circuit under every named ordering on the batch
// engine (identity is always included as the baseline, first) and reports
// nodes saved per ordering. With sift set, each non-identity configuration
// additionally runs dynamic sifting passes.
func SweepOrderings(ctx context.Context, circs []*circuit.Circuit, orders []string, sift bool, opts RunOptions) ([]OrderPoint, error) {
	names := []string{order.Identity}
	for _, o := range orders {
		if o != order.Identity {
			names = append(names, o)
		}
	}
	var cells []cell
	for _, c := range circs {
		for _, name := range names {
			cells = append(cells, cell{name: c.Name + "/" + name, circuit: c, registry: "reorder",
				params: mustJSON(core.ReorderPolicy{Static: name, Sift: sift && name != order.Identity})})
		}
	}
	jrs, err := runAll(ctx, cells, opts)
	if err != nil {
		return nil, err
	}
	out := make([]OrderPoint, 0, len(jrs))
	var identityMax int
	for i, jr := range jrs {
		res := jr.Result
		if i%len(names) == 0 {
			identityMax = res.MaxDDSize
		}
		out = append(out, OrderPoint{
			Circuit:       circs[i/len(names)].Name,
			Order:         names[i%len(names)],
			Params:        cells[i].config(),
			MaxDD:         res.MaxDDSize,
			FinalDD:       res.FinalDDSize,
			Runtime:       res.Runtime,
			IdentityMaxDD: identityMax,
			NodesSaved:    identityMax - res.MaxDDSize,
			SiftPasses:    res.SiftPasses,
		})
	}
	return out, nil
}

// FormatOrderMarkdown renders an ordering sweep as a markdown table.
func FormatOrderMarkdown(points []OrderPoint) string {
	var b strings.Builder
	b.WriteString("| Circuit | Order | Params | Max DD | Final DD | Saved | Sifts | Runtime |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, p := range points {
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %d | %d | %d | %s |\n",
			p.Circuit, p.Order, p.Params, p.MaxDD, p.FinalDD, p.NodesSaved, p.SiftPasses, fmtDur(p.Runtime))
	}
	return b.String()
}
