package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/benchtab"
)

// The committed goldens and the atlas artifact. The paths are relative to
// the repository root, where `make atlas` runs.
const (
	reportPath    = "docs/REPORT.md"
	atlasPath     = "docs/ATLAS.md"
	winnersPath   = "internal/atlas/winners_gen.go"
	atlasJSONPath = "BENCH_atlas.json"
)

// timingColumns are Table I's wall-clock CSV columns: the only ones that
// differ between two runs of the same code.
var timingColumns = []string{"exact_seconds", "approx_seconds", "speedup"}

// golden is one committed golden file: its path relative to the
// repository root and the bytes the code regenerates for it.
type golden struct{ path, want string }

// runGolden regenerates every golden, then writes them (mode "update") or
// fails naming each committed file that differs (mode "check"), with paths
// relative to the working directory, the repository root under `make`.
// BENCH_atlas.json is written in both modes: it carries the wall times CI
// uploads, and it is gitignored, so it cannot drift.
func runGolden(mode string, e env) error {
	if mode != "check" && mode != "update" {
		return fmt.Errorf("-golden must be check or update, got %q", mode)
	}
	goldens, a, err := renderGoldens(e)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(atlasJSONPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if mode == "update" {
		for _, g := range goldens {
			if err := os.WriteFile(g.path, []byte(g.want), 0o644); err != nil {
				return err
			}
		}
	} else if err := checkGoldens(".", goldens); err != nil {
		return err
	}
	fmt.Printf("experiments: golden %s: %s, %s and %s (%d atlas classes, %d cells)\n",
		mode, reportPath, atlasPath, winnersPath, len(a.Rows), len(a.Cells))
	return nil
}

// renderGoldens regenerates every golden from one run of the golden
// sections and one atlas sweep, and returns the sweep for BENCH_atlas.json.
func renderGoldens(e env) ([]golden, *benchtab.Atlas, error) {
	if e.scale != benchtab.PresetSmall || e.opts.BaseSeed != 0 {
		return nil, nil, fmt.Errorf("-golden runs at -scale %s -seed 0 only, got -scale %s -seed %d",
			benchtab.PresetSmall, e.scale, e.opts.BaseSeed)
	}
	e.golden = true

	report, err := renderReport(e)
	if err != nil {
		return nil, nil, err
	}
	a, err := benchtab.SweepAtlas(context.Background(), e.opts)
	if err != nil {
		return nil, nil, err
	}
	return []golden{
		{reportPath, report},
		{atlasPath, renderAtlas(a)},
		{winnersPath, renderWinners(a)},
	}, a, nil
}

// checkGoldens fails naming each golden whose committed file under root
// differs from the regenerated bytes.
func checkGoldens(root string, goldens []golden) error {
	var stale []string
	for _, g := range goldens {
		if got, err := os.ReadFile(filepath.Join(root, g.path)); err != nil || string(got) != g.want {
			stale = append(stale, g.path)
		}
	}
	if len(stale) > 0 {
		return fmt.Errorf("stale goldens (regenerate with `make atlas` and commit): %s", strings.Join(stale, ", "))
	}
	return nil
}

// renderReport produces docs/REPORT.md from the golden sections. Every
// byte must be a pure function of the repository code (no worker count,
// no wall times), so the check can compare it literally.
func renderReport(e env) (string, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Experiment report: deterministic sections\n\n"+
		"The sections of `go run ./cmd/experiments` that are pure functions of the\n"+
		"code, at %s scale and seed %d. Generated by `make atlas`; `make atlas-check`\n"+
		"fails CI when this file drifts from the code. The atlas (E13) is `docs/ATLAS.md`.\n\n",
		e.scale, e.opts.BaseSeed)
	for _, s := range sections {
		if !s.golden {
			continue
		}
		fmt.Fprintf(&b, "## %s\n\n", s.title)
		if err := s.run(&b, e); err != nil {
			return "", fmt.Errorf("%s: %w", s.title, err)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// dropColumns removes the named columns from CSV text whose header has no
// quoted fields. Each line splits into at most as many fields as the header
// has, so a comma inside the last field (the quoted error message) stays
// put. A name missing from the header is an error: a renamed timing column
// must not slip into a golden.
func dropColumns(csv string, names []string) (string, error) {
	lines := strings.SplitAfter(csv, "\n")
	header := strings.Split(strings.TrimSuffix(lines[0], "\n"), ",")
	drop := make([]bool, len(header))
	for _, name := range names {
		i := slices.Index(header, name)
		if i < 0 {
			return "", fmt.Errorf("CSV header %q has no column %q", lines[0], name)
		}
		drop[i] = true
	}
	var b strings.Builder
	for _, line := range lines {
		if line == "" {
			continue
		}
		fields := strings.SplitN(strings.TrimSuffix(line, "\n"), ",", len(header))
		kept := fields[:0]
		for i, f := range fields {
			if !drop[i] {
				kept = append(kept, f)
			}
		}
		b.WriteString(strings.Join(kept, ","))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// renderAtlas produces docs/ATLAS.md. Like docs/REPORT.md it carries no
// timestamps and no runtimes, so the check can compare it literally.
func renderAtlas(a *benchtab.Atlas) string {
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
	b.WriteString("// Code generated by cmd/experiments; DO NOT EDIT.\n")
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
	// and the byte comparison at the same time.
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		panic(fmt.Sprintf("generated winners table does not parse: %v", err))
	}
	return string(src)
}
