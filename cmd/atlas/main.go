// Command atlas regenerates the approximability atlas: it runs
// benchtab.SweepAtlas (the strategy × ordering × budget grid over every
// workload class, deterministic at smoke scale), then writes the committed
// docs/ATLAS.md winner table, the internal/atlas/winners_gen.go table that
// serve's strategy=auto resolves through, and the machine-readable
// BENCH_atlas.json (the only output carrying wall times).
//
// With -check it regenerates everything in memory and fails if the
// committed docs/ATLAS.md or winners_gen.go drifted from the code — the
// `make atlas-check` CI gate, same pattern as doc-lint.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"go/format"
	"os"
	"sort"
	"strings"

	"repro/internal/benchtab"
)

func main() {
	check := flag.Bool("check", false, "verify committed outputs instead of writing them")
	parallel := flag.Int("parallel", 0, "sweep workers (0 = all CPUs)")
	mdPath := flag.String("md", "docs/ATLAS.md", "winner table path")
	winnersPath := flag.String("winners", "internal/atlas/winners_gen.go", "generated Go table path")
	jsonPath := flag.String("json", "BENCH_atlas.json", "machine-readable sweep output path")
	flag.Parse()

	atlas, err := benchtab.SweepAtlas(context.Background(), benchtab.RunOptions{Parallel: benchtab.Workers(*parallel), BaseSeed: 1})
	if err != nil {
		fatal(err)
	}

	md := renderMarkdown(atlas)
	winners := renderWinners(atlas)
	blob, err := json.MarshalIndent(atlas, "", "  ")
	if err != nil {
		fatal(err)
	}
	// The JSON artifact is written in both modes: it carries the runtimes
	// CI uploads, and it is gitignored, so it can never drift.
	if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}

	if *check {
		drifted := false
		for _, f := range []struct{ path, want string }{
			{*mdPath, md},
			{*winnersPath, winners},
		} {
			got, err := os.ReadFile(f.path)
			if err != nil || string(got) != f.want {
				fmt.Fprintf(os.Stderr, "atlas-check: %s is stale (regenerate with `make atlas` and commit)\n", f.path)
				drifted = true
			}
		}
		if drifted {
			os.Exit(1)
		}
		fmt.Printf("atlas-check: %s and %s match the sweep (%d classes, %d cells)\n",
			*mdPath, *winnersPath, len(atlas.Rows), len(atlas.Cells))
		return
	}

	if err := os.WriteFile(*mdPath, []byte(md), 0o644); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*winnersPath, []byte(winners), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("atlas: wrote %s, %s, %s (%d classes, %d cells)\n",
		*mdPath, *winnersPath, *jsonPath, len(atlas.Rows), len(atlas.Cells))
}

// renderMarkdown produces docs/ATLAS.md. Every byte must be a pure
// function of the repository code — no timestamps, no runtimes — so the
// atlas-check gate can compare it literally.
func renderMarkdown(a *benchtab.Atlas) string {
	var b strings.Builder
	b.WriteString("# Approximability atlas\n\n")
	b.WriteString("Per-workload-class winners of the strategy × ordering × budget grid\n")
	b.WriteString("(`benchtab.SweepAtlas`) at smoke scale: for each class, every\n")
	b.WriteString("strategy (exact, memory, fidelity, replace) runs under every static\n")
	b.WriteString("ordering (identity, reversed, scored) at peak-derived budgets, and the\n")
	b.WriteString(fmt.Sprintf("cell with the smallest peak DD at fidelity ≥ %.2f wins.\n\n", benchtab.AtlasFidelityFloor))
	b.WriteString("`strategy=auto` submissions to the simulation service classify the\n")
	b.WriteString("circuit by gate mix (`gen.Classify`) and install the winner below\n")
	b.WriteString("(`internal/atlas`); unknown mixes fall back to the `generic` entry,\n")
	b.WriteString("which mirrors the cliffordt winner (the least structured class).\n\n")
	b.WriteString("Generated by `make atlas`; `make atlas-check` fails CI when this file\n")
	b.WriteString("drifts from the code. Wall times live in `BENCH_atlas.json` only, so\n")
	b.WriteString("this table is byte-deterministic.\n\n")
	b.WriteString("## Winners\n\n")
	b.WriteString(benchtab.FormatAtlasMarkdown(a))
	b.WriteString("\n## Full grid\n\n")
	b.WriteString(benchtab.FormatAtlasGridMarkdown(a))
	return b.String()
}

// renderWinners produces internal/atlas/winners_gen.go, including the
// generic fallback entry (a copy of the cliffordt winner — the least
// structured class is the safest default for unrecognized gate mixes).
func renderWinners(a *benchtab.Atlas) string {
	type entry struct {
		class string
		cell  benchtab.AtlasCell
	}
	entries := make([]entry, 0, len(a.Rows)+1)
	for _, r := range a.Rows {
		entries = append(entries, entry{r.Class, r.Winner})
		if r.Class == "cliffordt" {
			entries = append(entries, entry{"generic", r.Winner})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].class < entries[j].class })

	var b strings.Builder
	b.WriteString("// Code generated by cmd/atlas; DO NOT EDIT.\n")
	b.WriteString("// Regenerate with `make atlas`; CI gates drift via `make atlas-check`.\n\n")
	b.WriteString("package atlas\n\n")
	b.WriteString("var winners = map[string]Config{\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "\t%q: {Class: %q, Strategy: %q, Params: %s, Base: %q, Order: %q},\n",
			e.class, e.class, e.cell.RegistryStrategy, "`"+e.cell.RegistryParams+"`",
			e.cell.Strategy, e.cell.Order)
	}
	b.WriteString("}\n")
	// gofmt the output so the committed file survives the fmt-check gate
	// and the atlas-check byte comparison at the same time.
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		fatal(fmt.Errorf("generated winners table does not parse: %w", err))
	}
	return string(src)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atlas:", err)
	os.Exit(1)
}
