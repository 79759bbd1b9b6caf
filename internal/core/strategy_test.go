package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dd"
)

func TestMemoryDrivenThresholdDoubling(t *testing.T) {
	m := dd.New()
	rng := rand.New(rand.NewSource(70))
	s := &MemoryDriven{Threshold: 4, RoundFidelity: 0.9}
	if err := s.Init(100, nil); err != nil {
		t.Fatal(err)
	}
	if s.current != 4 {
		t.Fatalf("initial threshold %d", s.current)
	}
	// A dense random state on 6 qubits exceeds 4 nodes.
	e := randomState(t, m, 6, 1.0, rng)
	size := dd.CountVNodes(e)
	ne, round, err := s.AfterGate(m, 0, size, e)
	if err != nil {
		t.Fatal(err)
	}
	if round == nil {
		t.Fatal("approximation did not trigger above threshold")
	}
	if s.current != 8 {
		t.Errorf("threshold after round = %d, want 8 (doubled)", s.current)
	}
	if round.Report.Achieved < 0.9-1e-9 {
		t.Errorf("round fidelity %v below target", round.Report.Achieved)
	}
	if dd.CountVNodes(ne) >= size {
		t.Error("state did not shrink")
	}
	// Below threshold: no trigger.
	small := m.BasisState(6, 0)
	_, round, err = s.AfterGate(m, 1, dd.CountVNodes(small), small)
	if err != nil {
		t.Fatal(err)
	}
	if round != nil {
		t.Error("approximation triggered below threshold")
	}
}

// TestMemoryDrivenThresholdGrowth: each round multiplies the threshold by
// Growth, saturating at math.MaxInt instead of overflowing into a negative
// threshold that would trigger a round after every later gate.
func TestMemoryDrivenThresholdGrowth(t *testing.T) {
	cases := []struct {
		growth float64
		want   int
	}{
		{0, 8}, // the paper's default doubling
		{1.5, 6},
		{1, 4},
		{1e30, math.MaxInt},
	}
	for _, tc := range cases {
		m := dd.New()
		s := &MemoryDriven{Threshold: 4, RoundFidelity: 0.999, Growth: tc.growth}
		if err := s.Init(100, nil); err != nil {
			t.Fatal(err)
		}
		e := randomState(t, m, 6, 1.0, rand.New(rand.NewSource(72)))
		size := dd.CountVNodes(e)
		if _, _, err := s.AfterGate(m, 0, size, e); err != nil {
			t.Fatal(err)
		}
		if got := s.current; got != tc.want {
			t.Errorf("growth %v: threshold after one round = %d, want %d", tc.growth, got, tc.want)
		}
		if tc.want == math.MaxInt {
			if _, round, _ := s.AfterGate(m, 1, size, e); round != nil {
				t.Errorf("growth %v: saturated threshold still triggered a round", tc.growth)
			}
		}
	}
}

func TestMemoryDrivenValidation(t *testing.T) {
	if err := (&MemoryDriven{Threshold: 0, RoundFidelity: 0.9}).Init(1, nil); err == nil {
		t.Error("zero threshold accepted")
	}
	if err := (&MemoryDriven{Threshold: 10, RoundFidelity: 0}).Init(1, nil); err == nil {
		t.Error("zero fidelity accepted")
	}
	if err := (&MemoryDriven{Threshold: 10, RoundFidelity: 0.9, Growth: 0.5}).Init(1, nil); err == nil {
		t.Error("shrinking growth accepted")
	}
}

func TestFidelityDrivenMaxRounds(t *testing.T) {
	// Paper Section IV-C / Table I: f_final = 0.5, f_round = 0.9 → 6 rounds.
	s := NewFidelityDriven(0.5, 0.9)
	if got := s.MaxRounds(); got != 6 {
		t.Errorf("MaxRounds(0.5, 0.9) = %d, want 6", got)
	}
	// 0.9^6 ≈ 0.531 ≥ 0.5; one more round would violate the bound.
	if math.Pow(0.9, float64(s.MaxRounds())) < s.FinalFidelity {
		t.Error("MaxRounds violates the guarantee")
	}
	if math.Pow(0.9, float64(s.MaxRounds()+1)) >= s.FinalFidelity {
		t.Error("MaxRounds is not maximal")
	}
	if got := NewFidelityDriven(0.5, 0.99).MaxRounds(); got != 68 {
		t.Errorf("MaxRounds(0.5, 0.99) = %d, want 68", got)
	}
}

// TestFidelityDrivenMaxRoundsTable pins MaxRounds on f_final values that are
// exact powers of f_round, where the quotient of logarithms lands a hair
// below the integer (0.81 / 0.9 read 1.9999999999999998) and f_round^k may
// be an ulp below f_final, next to the paper's settings and the edges.
func TestFidelityDrivenMaxRoundsTable(t *testing.T) {
	for _, tc := range []struct {
		final, round float64
		want         int
	}{
		{0.5, 0.9, 6},
		{0.5, 0.99, 68},
		{0.5, 0.71, 2},
		{0.81, 0.9, 2},
		{0.729, 0.9, 3},
		{0.9025, 0.95, 2},
		{0.857375, 0.95, 3},
		{0.970299, 0.99, 3},
		{0.25, 0.5, 2},
		{0.9, 0.9, 1},
		{0.95, 0.9, 0},
		{1, 0.9, 0},
		{0.5, 1, 0},
	} {
		if got := NewFidelityDriven(tc.final, tc.round).MaxRounds(); got != tc.want {
			t.Error(tc.final, tc.round, got, tc.want)
		}
	}
}

func TestFidelityDrivenValidation(t *testing.T) {
	if err := NewFidelityDriven(0, 0.9).Init(10, nil); err == nil {
		t.Error("zero final fidelity accepted")
	}
	if err := NewFidelityDriven(0.9, 0.5).Init(10, nil); err == nil {
		t.Error("round fidelity below final accepted")
	}
	if err := NewFidelityDriven(0.5, 0.9).Init(10, nil); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestPlanRoundsWithBlocks(t *testing.T) {
	blocks := []int{9, 19, 29, 39, 49, 59, 69, 79}
	got := PlanRounds(100, blocks, 3)
	if !reflect.DeepEqual(got, []int{59, 69, 79}) {
		t.Errorf("late-block plan = %v", got)
	}
	// Fewer boundaries than rounds: use all of them.
	got = PlanRounds(100, []int{10, 20}, 5)
	if !reflect.DeepEqual(got, []int{10, 20}) {
		t.Errorf("all-blocks plan = %v", got)
	}
}

func TestPlanRoundsEvenSpacing(t *testing.T) {
	got := PlanRounds(100, nil, 4)
	if len(got) != 4 {
		t.Fatalf("plan = %v", got)
	}
	for i, idx := range got {
		if idx < 0 || idx >= 99 {
			t.Errorf("plan[%d] = %d out of range", i, idx)
		}
		if i > 0 && idx <= got[i-1] {
			t.Errorf("plan not strictly increasing: %v", got)
		}
	}
	// Boundary at the final gate is dropped (nothing follows it).
	got = PlanRounds(10, []int{9}, 1)
	if len(got) != 1 || got[0] == 9 {
		t.Errorf("final-gate boundary not handled: %v", got)
	}
	if PlanRounds(0, nil, 3) != nil {
		t.Error("plan for empty circuit not nil")
	}
	if PlanRounds(10, nil, 0) != nil {
		t.Error("plan for zero rounds not nil")
	}
}

func TestFidelityDrivenSchedule(t *testing.T) {
	m := dd.New()
	rng := rand.New(rand.NewSource(71))
	s := NewFidelityDriven(0.5, 0.9)
	if err := s.Init(50, []int{10, 20, 30, 40, 45, 47, 48}); err != nil {
		t.Fatal(err)
	}
	locs := s.planned
	if len(locs) != 6 {
		t.Fatalf("planned %d rounds, want 6", len(locs))
	}
	e := randomState(t, m, 7, 0.9, rng)
	// Unscheduled index: no-op.
	_, round, err := s.AfterGate(m, 5, dd.CountVNodes(e), e)
	if err != nil {
		t.Fatal(err)
	}
	if round != nil {
		t.Error("round ran at unscheduled gate")
	}
	// Scheduled index: runs.
	_, round, err = s.AfterGate(m, locs[0], dd.CountVNodes(e), e)
	if err != nil {
		t.Fatal(err)
	}
	if round == nil {
		t.Error("round did not run at scheduled gate")
	}
}

func TestExactStrategyIsNoOp(t *testing.T) {
	m := dd.New()
	var s Exact
	if err := s.Init(10, nil); err != nil {
		t.Fatal(err)
	}
	e := m.BasisState(3, 1)
	ne, round, err := s.AfterGate(m, 0, 3, e)
	if err != nil || round != nil || ne != e {
		t.Error("Exact strategy modified the state")
	}
	if s.Name() != "exact" {
		t.Error("name")
	}
}

func TestFidelityTrackerProduct(t *testing.T) {
	tr := NewFidelityTracker()
	if tr.Achieved() != 1 || tr.Bound() != 1 || tr.Count() != 0 {
		t.Fatal("fresh tracker not at fidelity 1")
	}
	tr.Record(Round{GateIndex: 3, Report: Report{Requested: 0.9, Achieved: 0.95}})
	tr.Record(Round{GateIndex: 7, Report: Report{Requested: 0.9, Achieved: 0.92}})
	if math.Abs(tr.Achieved()-0.95*0.92) > 1e-15 {
		t.Errorf("achieved product %v", tr.Achieved())
	}
	if math.Abs(tr.Bound()-0.81) > 1e-15 {
		t.Errorf("bound product %v", tr.Bound())
	}
	if tr.Count() != 2 || len(tr.Rounds()) != 2 {
		t.Error("round bookkeeping wrong")
	}
}
