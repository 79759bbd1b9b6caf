package gen

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestDeutschJozsaConstant(t *testing.T) {
	n := 6
	res, err := sim.Run(DeutschJozsa(n, false, 0), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Data qubits must be |0...0⟩ (oracle qubit in |-⟩ may be 0 or 1).
	p := res.Manager.Probability(res.Final, 0, n+1) +
		res.Manager.Probability(res.Final, 1<<uint(n), n+1)
	if math.Abs(p-1) > 1e-9 {
		t.Errorf("constant oracle: P(data=0) = %v", p)
	}
}

func TestDeutschJozsaBalanced(t *testing.T) {
	n := 6
	mask := uint64(0b110101)
	res, err := sim.Run(DeutschJozsa(n, true, mask), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Manager.Probability(res.Final, mask, n+1) +
		res.Manager.Probability(res.Final, mask|1<<uint(n), n+1)
	if math.Abs(p-1) > 1e-9 {
		t.Errorf("balanced oracle: P(data=mask) = %v", p)
	}
	// Zero mask is promoted to a balanced function, not constant.
	c := DeutschJozsa(3, true, 0)
	counts := map[string]int{}
	for _, g := range c.Gates() {
		counts[g.Name]++
	}
	if counts["x"] < 2 {
		t.Error("zero mask did not produce an oracle")
	}
}

func TestPhaseEstimationExactPhase(t *testing.T) {
	// φ = k/2^t is represented exactly: the counting register reads k with
	// probability 1.
	tBits := 5
	for _, k := range []uint64{1, 7, 19, 31} {
		phi := float64(k) / 32
		res, err := sim.Run(PhaseEstimation(tBits, phi), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(1) | k<<1 // eigenstate qubit is |1⟩, counting bits above
		if p := res.Manager.Probability(res.Final, want, tBits+1); math.Abs(p-1) > 1e-9 {
			t.Errorf("φ=%v: P(counting=%d) = %v", phi, k, p)
		}
	}
}

func TestPhaseEstimationInexactPhaseConcentrates(t *testing.T) {
	// An irrational phase concentrates on the two nearest grid values with
	// total probability ≥ 8/π² ≈ 0.81.
	tBits := 6
	phi := 1 / math.Pi
	res, err := sim.Run(PhaseEstimation(tBits, phi), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid := phi * 64
	lo := uint64(math.Floor(grid))
	hi := (lo + 1) % 64
	p := res.Manager.Probability(res.Final, 1|lo<<1, tBits+1) +
		res.Manager.Probability(res.Final, 1|hi<<1, tBits+1)
	if p < 0.8 {
		t.Errorf("neighbour probability %v < 0.8", p)
	}
}

func TestPhaseEstimationBlocks(t *testing.T) {
	c := PhaseEstimation(4, 0.25)
	if len(c.Blocks()) < 6 {
		t.Errorf("QPE blocks = %v, want H + 4 controlled powers + IQFT groups", c.Blocks())
	}
	defer func() {
		if recover() == nil {
			t.Error("t=0 accepted")
		}
	}()
	PhaseEstimation(0, 0.5)
}

func TestRippleCarryAdder(t *testing.T) {
	n := 4
	for _, tc := range [][2]uint64{{0, 0}, {1, 1}, {5, 9}, {15, 15}, {7, 12}, {8, 8}} {
		a, b := tc[0], tc[1]
		c := RippleCarryAdder(n, a, b)
		res, err := sim.Run(c, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The circuit is classical: the state must be a single basis state
		// whose b register holds (a+b) mod 16.
		want := (a + b) % 16
		found := false
		for idx := uint64(0); idx < 1<<uint(2*n+1); idx++ {
			p := res.Manager.Probability(res.Final, idx, 2*n+1)
			if p > 0.5 {
				got := idx >> uint(n+1) & (1<<uint(n) - 1)
				if got != want {
					t.Errorf("%d + %d: sum register %d, want %d", a, b, got, want)
				}
				// a register must be restored.
				aReg := idx >> 1 & (1<<uint(n) - 1)
				if aReg != a {
					t.Errorf("%d + %d: a register corrupted: %d", a, b, aReg)
				}
				// carry ancilla restored to 0.
				if idx&1 != 0 {
					t.Errorf("%d + %d: carry ancilla not cleared", a, b)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%d + %d: final state is not a basis state", a, b)
		}
	}
}

func TestAdderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width 0 accepted")
		}
	}()
	RippleCarryAdder(0, 0, 0)
}
