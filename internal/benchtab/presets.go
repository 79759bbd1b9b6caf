package benchtab

import (
	"fmt"
	"time"

	"repro/internal/supremacy"
)

// Preset names accepted by NewSuite.
const (
	PresetSmall  = "small"  // seconds; default for `go test -bench`
	PresetMedium = "medium" // minutes
	PresetPaper  = "paper"  // the original Table I instances; hours
)

// NewSuite returns the Table I suite for a preset.
//
// The paper preset reproduces the original workloads exactly: supremacy
// 4×5 grids at depth 15 (seeds 0–2) with f_round ∈ {0.99, 0.975, 0.95} and
// threshold doubling, and Shor instances up to shor_1157_8 (33 qubits) at
// f_final = 0.5, f_round = 0.9, with the paper's 3 h timeout.
//
// The small/medium presets shrink the grids and semiprimes so exact
// references stay laptop-feasible while keeping every structural parameter:
// same generators, same f_round sweep, same f_final = 0.5 target, thresholds
// placed at the same fraction (~1/4) of the DD ceiling 2^n, and a gentler
// threshold growth so the round counts land in the paper's regime at the
// smaller ceilings.
func NewSuite(preset string) (Suite, error) {
	switch preset {
	case PresetSmall:
		return Suite{
			Name:      preset,
			Supremacy: supremacyCases(3, 4, 16, 1<<10, 1.05, 0, 1, 2),
			Shor: []ShorCase{
				{N: 15, A: 7, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 21, A: 2, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 33, A: 5, FinalFidelity: 0.5, RoundFidelity: 0.9},
			},
			Timeout:    5 * time.Minute,
			SampleTrue: true,
		}, nil
	case PresetMedium:
		return Suite{
			Name:      preset,
			Supremacy: supremacyCases(4, 4, 20, 1<<14, 1.05, 0, 1),
			Shor: []ShorCase{
				{N: 33, A: 5, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 55, A: 2, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 69, A: 2, FinalFidelity: 0.5, RoundFidelity: 0.9},
			},
			Timeout:    30 * time.Minute,
			SampleTrue: true,
		}, nil
	case PresetPaper:
		return Suite{
			Name:      preset,
			Supremacy: supremacyCases(4, 5, 15, 1<<18, 2, 0, 1, 2),
			Shor: []ShorCase{
				{N: 33, A: 5, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 55, A: 2, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 69, A: 2, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 221, A: 4, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 323, A: 8, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 629, A: 8, FinalFidelity: 0.5, RoundFidelity: 0.9},
				{N: 1157, A: 8, FinalFidelity: 0.5, RoundFidelity: 0.9},
			},
			Timeout:    3 * time.Hour,
			SampleTrue: false, // comparing 2^20-node states doubles the cost
		}, nil
	default:
		return Suite{}, fmt.Errorf("benchtab: unknown preset %q (want %s|%s|%s)",
			preset, PresetSmall, PresetMedium, PresetPaper)
	}
}

// supremacyCases returns one memory-driven case per seed of a rows×cols
// grid at the given depth, all sharing one threshold schedule and Table I's
// f_round sweep.
func supremacyCases(rows, cols, depth, threshold int, growth float64, seeds ...int64) []SupremacyCase {
	cases := make([]SupremacyCase, len(seeds))
	for i, seed := range seeds {
		cases[i] = SupremacyCase{
			Config:    supremacy.Config{Rows: rows, Cols: cols, Depth: depth, Seed: seed},
			Threshold: threshold, Growth: growth,
			Frounds: []float64{0.99, 0.975, 0.95},
		}
	}
	return cases
}
