package core

import (
	"reflect"
	"testing"
)

func TestSpreadLocationsSubset(t *testing.T) {
	locs := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	got := spreadLocations(locs, 200, 4)
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	// Must include the last location and span the range.
	if got[len(got)-1] != 100 {
		t.Errorf("last location not included: %v", got)
	}
	if got[0] > 40 {
		t.Errorf("early region not covered: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("not strictly increasing: %v", got)
		}
	}
}

func TestSpreadLocationsFewerThanRounds(t *testing.T) {
	got := spreadLocations([]int{5, 15}, 100, 6)
	if !reflect.DeepEqual(got, []int{5, 15}) {
		t.Errorf("got %v", got)
	}
}

func TestSpreadLocationsFiltersInvalid(t *testing.T) {
	// Negative, duplicate and end-of-circuit locations are dropped.
	got := spreadLocations([]int{-1, 5, 5, 99, 120}, 100, 10)
	if !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("got %v", got)
	}
	if spreadLocations([]int{5}, 100, 0) != nil {
		t.Error("zero rounds should plan nothing")
	}
}

func TestFidelityDrivenExplicitLocations(t *testing.T) {
	s := NewFidelityDriven(0.5, 0.9) // 6 rounds max
	s.Locations = []int{3, 7, 11, 15, 19, 23, 27, 31, 35, 39}
	if err := s.Init(100, []int{50, 60}); err != nil {
		t.Fatal(err)
	}
	locs := s.planned
	if len(locs) != 6 {
		t.Fatalf("planned %d rounds, want 6: %v", len(locs), locs)
	}
	// Explicit locations take precedence over block boundaries.
	for _, l := range locs {
		if l == 50 || l == 60 {
			t.Errorf("block boundary used despite explicit locations: %v", locs)
		}
	}
	if locs[len(locs)-1] != 39 {
		t.Errorf("last explicit location not used: %v", locs)
	}
}

func TestPlanRoundsNeedsASuccessorGate(t *testing.T) {
	// A round runs after a gate and before the next one, so a 1-gate
	// circuit has no location for it.
	if got := PlanRounds(1, nil, 1); got != nil {
		t.Errorf("PlanRounds on a 1-gate circuit = %v, want nil", got)
	}
	s := NewFidelityDriven(0.5, 0.9)
	if err := s.Init(1, nil); err != nil {
		t.Fatal(err)
	}
	if locs := s.planned; len(locs) != 0 {
		t.Errorf("1-gate circuit planned rounds at %v", locs)
	}
}
