package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dd"
)

// Round records one approximation round applied during simulation.
type Round struct {
	GateIndex int // gate after which the round ran (0-based)
	Report    Report
}

// Strategy decides when to approximate during simulation. Implementations
// are stateful per run; Init is called before the first gate of every run.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Init receives the total gate count and the sorted gate indices of
	// block boundaries (circuit positions after which a logical block ends).
	// It validates the configuration and resets all per-run state, so an
	// instance Init'ed (or run) before behaves like a fresh one: the
	// simulation service validates a submission by Init'ing the instance
	// its job then runs, and the session Inits it again.
	Init(totalGates int, blocks []int) error
	// AfterGate is called after gate gateIdx has been applied; size is the
	// current node count of the state DD. A nil Round means no
	// approximation was performed; otherwise the returned edge replaces the
	// state, and the Round's Report.SizeAfter must be the node count of
	// that returned edge: the session takes it as the state's size instead
	// of recounting. The core passes (ApproximateToFidelity,
	// ApproximateToSize, ApproximateToSizeReplace) report it so.
	AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *Round, error)
}

// Exact is the no-approximation strategy (the paper's reference baseline).
type Exact struct{}

// Name implements Strategy.
func (Exact) Name() string { return "exact" }

// Init implements Strategy.
func (Exact) Init(int, []int) error { return nil }

// AfterGate implements Strategy.
func (Exact) AfterGate(_ *dd.Manager, _, _ int, state dd.VEdge) (dd.VEdge, *Round, error) {
	return state, nil, nil
}

// MemoryDriven is the reactive strategy of Section IV-B: after each gate, if
// the state DD exceeds Threshold nodes, approximate to RoundFidelity and
// multiply the threshold by Growth (the paper doubles it) so the number of
// rounds stays bounded.
type MemoryDriven struct {
	// Threshold is the initial node-count threshold.
	Threshold int `json:"threshold"`
	// RoundFidelity is the per-round target fidelity f_round.
	RoundFidelity float64 `json:"round_fidelity"`
	// Growth is the threshold multiplier applied after every round;
	// 0 means the paper's default of 2.
	Growth float64 `json:"growth,omitempty"`

	current int
}

// Name implements Strategy.
func (s *MemoryDriven) Name() string { return "memory-driven" }

// Init implements Strategy.
func (s *MemoryDriven) Init(int, []int) error {
	if s.Threshold <= 0 {
		return fmt.Errorf("core: memory-driven threshold %d must be positive", s.Threshold)
	}
	if !(s.RoundFidelity > 0 && s.RoundFidelity <= 1) {
		return fmt.Errorf("core: memory-driven round fidelity %v outside (0, 1]", s.RoundFidelity)
	}
	if s.Growth == 0 {
		s.Growth = 2
	}
	if !(s.Growth >= 1) {
		return fmt.Errorf("core: memory-driven growth %v must be ≥ 1", s.Growth)
	}
	s.current = s.Threshold
	return nil
}

// AfterGate implements Strategy.
func (s *MemoryDriven) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *Round, error) {
	if size <= s.current {
		return state, nil, nil
	}
	ne, rep, err := ApproximateToFidelity(m, state, s.RoundFidelity)
	if err != nil {
		return state, nil, err
	}
	// Saturate: a huge Growth would overflow the int conversion.
	if next := math.Ceil(float64(s.current) * s.Growth); next < math.MaxInt {
		s.current = int(next)
	} else {
		s.current = math.MaxInt
	}
	if rep.NoOp() {
		// Nothing removable within budget; the grown threshold avoids
		// re-trying after every subsequent gate.
		return state, nil, nil
	}
	return ne, &Round{GateIndex: gateIdx, Report: rep}, nil
}

// FidelityDriven is the proactive strategy of Section IV-C: given a minimum
// final fidelity f_final and per-round fidelity f_round, at most
// ⌊log_{f_round}(f_final)⌋ rounds are planned up front, placed at block
// boundaries when available (for Shor: during the inverse QFT) and evenly
// spaced otherwise.
type FidelityDriven struct {
	// FinalFidelity is f_final: the product of the round targets stays at
	// or above it. That product bounds the tracked estimate, and the true
	// fidelity only when no gate separates the rounds (see
	// sim.Result.FidelityBound).
	FinalFidelity float64 `json:"final_fidelity"`
	// RoundFidelity is the per-round target f_round.
	RoundFidelity float64 `json:"round_fidelity"`
	// Locations, when non-empty, overrides automatic placement with
	// explicit gate indices (the paper's "exploiting knowledge of the
	// algorithm" mode: Shor places rounds across the inverse QFT). When
	// more locations than rounds are given, an evenly spaced subset is
	// used so the rounds cover the whole region.
	Locations []int `json:"locations,omitempty"`

	schedule map[int]bool
	planned  []int
}

// NewFidelityDriven returns a fidelity-driven strategy.
func NewFidelityDriven(finalFidelity, roundFidelity float64) *FidelityDriven {
	return &FidelityDriven{FinalFidelity: finalFidelity, RoundFidelity: roundFidelity}
}

// Name implements Strategy.
func (s *FidelityDriven) Name() string { return "fidelity-driven" }

// MaxRounds returns ⌊log_{f_round}(f_final)⌋, the largest round count k with
// f_round^k ≥ f_final, which keeps the product of the round targets above
// f_final (Section IV-C). The quotient of logarithms only seeds an integer
// search on f_round^k itself, whose comparison forgives a few ulps, so an
// f_final that is an exact power of f_round (0.81 = 0.9²) gets every round.
// The count saturates at maxRounds, where float64 still tells k from k+1.
func (s *FidelityDriven) MaxRounds() int {
	if s.RoundFidelity >= 1 {
		return 0
	}
	floor := s.FinalFidelity * (1 - 0x1p-50)
	k := min(max(0, int(math.Log(s.FinalFidelity)/math.Log(s.RoundFidelity))), maxRounds)
	for k > 0 && math.Pow(s.RoundFidelity, float64(k)) < floor {
		k--
	}
	for k < maxRounds && math.Pow(s.RoundFidelity, float64(k+1)) >= floor {
		k++
	}
	return k
}

// maxRounds caps MaxRounds at 2^53: beyond it float64(k+1) == float64(k),
// so the search would never end. An f_round an ulp below 1 with a tiny
// f_final asks for ~6e18 rounds; no circuit has that many gates.
const maxRounds = 1 << 53

// Init implements Strategy.
func (s *FidelityDriven) Init(totalGates int, blocks []int) error {
	if !(s.FinalFidelity > 0 && s.FinalFidelity <= 1) {
		return fmt.Errorf("core: final fidelity %v outside (0, 1]", s.FinalFidelity)
	}
	if !(s.RoundFidelity > 0 && s.RoundFidelity <= 1) {
		return fmt.Errorf("core: round fidelity %v outside (0, 1]", s.RoundFidelity)
	}
	if s.RoundFidelity < s.FinalFidelity {
		return fmt.Errorf("core: round fidelity %v below final fidelity %v (a single round would already violate the bound)",
			s.RoundFidelity, s.FinalFidelity)
	}
	// A round follows one of gates 0..totalGates-2, so more rounds than
	// that plan nothing new (the even spacing already covers every index)
	// and would only size the plan by the fidelity budget.
	rounds := min(s.MaxRounds(), totalGates-1)
	if len(s.Locations) > 0 {
		s.planned = spreadLocations(s.Locations, totalGates, rounds)
	} else {
		s.planned = PlanRounds(totalGates, blocks, rounds)
	}
	s.schedule = make(map[int]bool, len(s.planned))
	for _, idx := range s.planned {
		s.schedule[idx] = true
	}
	return nil
}

// spreadLocations filters explicit locations to valid gate indices and,
// when there are more candidates than rounds, picks an evenly spaced subset
// covering the whole candidate range (always including the last location).
func spreadLocations(locations []int, totalGates, rounds int) []int {
	if rounds <= 0 {
		return nil
	}
	cand := roundCandidates(locations, totalGates)
	if len(cand) <= rounds {
		return cand
	}
	out := make([]int, 0, rounds)
	for k := 0; k < rounds; k++ {
		idx := (k + 1) * len(cand) / rounds
		pick := cand[idx-1]
		if len(out) == 0 || out[len(out)-1] != pick {
			out = append(out, pick)
		}
	}
	return out
}

// AfterGate implements Strategy.
func (s *FidelityDriven) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *Round, error) {
	if !s.schedule[gateIdx] {
		return state, nil, nil
	}
	ne, rep, err := ApproximateToFidelity(m, state, s.RoundFidelity)
	if err != nil {
		return state, nil, err
	}
	if rep.NoOp() {
		return state, nil, nil
	}
	return ne, &Round{GateIndex: gateIdx, Report: rep}, nil
}

// roundCandidates filters gate indices to those a round can follow,
// deduplicated and sorted. The last gate is dropped: nothing follows it.
func roundCandidates(indices []int, totalGates int) []int {
	var cand []int
	for _, i := range indices {
		if i >= 0 && i < totalGates-1 {
			cand = append(cand, i)
		}
	}
	slices.Sort(cand)
	return slices.Compact(cand)
}

// PlanRounds chooses up to `rounds` gate indices at which to approximate.
// Block boundaries are used when present (Section IV-C: "promising
// candidates for such locations are between circuit blocks"), the last ones
// first, matching the paper's Shor setup where the approximation rounds run
// during the inverse QFT at the end of the circuit; otherwise the rounds
// are evenly spaced through the circuit.
func PlanRounds(totalGates int, blocks []int, rounds int) []int {
	if rounds <= 0 || totalGates < 2 {
		return nil // a round needs a gate after it
	}
	cand := roundCandidates(blocks, totalGates)
	if len(cand) >= rounds {
		return cand[len(cand)-rounds:]
	}
	if len(cand) > 0 {
		return cand // fewer boundaries than rounds: use them all
	}
	// No block structure: evenly space the rounds.
	out := make([]int, 0, rounds)
	for k := 1; k <= rounds; k++ {
		idx := k*totalGates/(rounds+1) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= totalGates-1 {
			idx = totalGates - 2
		}
		if len(out) == 0 || out[len(out)-1] != idx {
			out = append(out, idx)
		}
	}
	return out
}
