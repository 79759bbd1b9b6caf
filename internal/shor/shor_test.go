package shor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestInstanceValidation(t *testing.T) {
	if _, err := NewInstance(15, 7); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	if _, err := NewInstance(16, 3); err == nil {
		t.Error("even N accepted")
	}
	if _, err := NewInstance(15, 5); err == nil {
		t.Error("non-coprime base accepted")
	}
	if _, err := NewInstance(15, 1); err == nil {
		t.Error("a = 1 accepted")
	}
	if _, err := NewInstance(3, 2); err == nil {
		t.Error("tiny N accepted")
	}
}

func TestInstanceQubitCountsMatchPaper(t *testing.T) {
	// Table I qubit counts: shor_33_5 → 18, shor_55_2 → 18, shor_69_2 → 21,
	// shor_221_4 → 24, shor_323_8 → 27, shor_629_8 → 30, shor_1157_8 → 33.
	cases := []struct {
		n, a   uint64
		qubits int
	}{
		{33, 5, 18}, {55, 2, 18}, {69, 2, 21}, {221, 4, 24},
		{323, 8, 27}, {629, 8, 30}, {1157, 8, 33},
	}
	for _, c := range cases {
		in, err := NewInstance(c.n, c.a)
		if err != nil {
			t.Fatal(err)
		}
		if in.Qubits != c.qubits {
			t.Errorf("%s: %d qubits, want %d (Table I)", in.Name(), in.Qubits, c.qubits)
		}
	}
}

func TestShorCircuitBlocks(t *testing.T) {
	// Fig. 2 structure: an H block, 2n controlled modular multiplications,
	// then the inverse QFT split into per-qubit groups (plus its swap
	// block). Every boundary is a candidate approximation location.
	in, err := NewInstance(15, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := in.BuildCircuit()
	blocks := c.Blocks()
	// 1 (H) + 2n (mod-muls) + 1 (swaps) + 2n (iqft qubit groups)
	want := 1 + 2*in.Bits + 1 + 2*in.Bits
	if len(blocks) != want {
		t.Errorf("%d block boundaries, want %d", len(blocks), want)
	}
	counts := map[string]int{}
	for _, g := range c.Gates() {
		counts[g.Name]++
	}
	if counts["perm"] != 2*in.Bits {
		t.Errorf("%d modular multiplications, want %d", counts["perm"], 2*in.Bits)
	}
	if counts["h"] != 2*in.Bits+2*in.Bits {
		// 2n initial Hadamards + 2n inside the inverse QFT.
		t.Errorf("%d Hadamards, want %d", counts["h"], 4*in.Bits)
	}
}

func TestModMulPermutationIsBijection(t *testing.T) {
	in, err := NewInstance(21, 2)
	if err != nil {
		t.Fatal(err)
	}
	perm := in.modMulPermutation(2)
	seen := make([]bool, len(perm))
	for _, y := range perm {
		if seen[y] {
			t.Fatal("modular multiplication permutation is not a bijection")
		}
		seen[y] = true
	}
	// x ≥ N fixed.
	for x := int(in.N); x < len(perm); x++ {
		if perm[x] != x {
			t.Errorf("perm[%d] = %d, want identity above N", x, perm[x])
		}
	}
}

func TestCountingDistributionExactN15(t *testing.T) {
	// For N=15, a=7 the order is 4 and 4 | Q, so the exact counting
	// distribution is uniform over {0, Q/4, Q/2, 3Q/4}.
	in, err := NewInstance(15, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(in.BuildCircuit(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	Q := uint64(1) << uint(in.CountingQubits())
	rng := rand.New(rand.NewSource(1))
	peaks := map[uint64]int{}
	const shots = 4000
	for i := 0; i < shots; i++ {
		y := in.ExtractCounting(res.Manager.Sample(res.Final, in.Qubits, rng))
		peaks[y]++
	}
	wantPeaks := map[uint64]bool{0: true, Q / 4: true, Q / 2: true, 3 * Q / 4: true}
	for y, count := range peaks {
		if !wantPeaks[y] {
			t.Fatalf("sampled off-peak counting value %d (count %d)", y, count)
		}
		frac := float64(count) / shots
		if math.Abs(frac-0.25) > 0.05 {
			t.Errorf("peak %d frequency %v, want 0.25", y, frac)
		}
	}
}

func TestShorFactorsExactly(t *testing.T) {
	for _, c := range []struct{ n, a uint64 }{{15, 7}, {15, 2}, {21, 2}} {
		in, err := NewInstance(c.n, c.a)
		if err != nil {
			t.Fatal(err)
		}
		out, err := in.Run(RunOptions{Shots: 64, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Factors.Success {
			t.Fatalf("%s: exact simulation failed to factor", in.Name())
		}
		if out.Factors.Factor1*out.Factors.Factor2 != c.n {
			t.Fatalf("%s: wrong factors %d × %d", in.Name(),
				out.Factors.Factor1, out.Factors.Factor2)
		}
	}
}

func TestShorFactorsAtHalfFidelity(t *testing.T) {
	// The paper's headline claim (Sections I, IV-C, VI): with the
	// fidelity-driven strategy at f_final = 0.5, f_round = 0.9, Shor still
	// factors correctly while the DD shrinks.
	in, err := NewInstance(15, 7)
	if err != nil {
		t.Fatal(err)
	}
	out, err := in.Run(RunOptions{
		FinalFidelity: 0.5,
		RoundFidelity: 0.9,
		Shots:         128,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Sim.FidelityBound < 0.5-1e-9 {
		t.Errorf("fidelity bound %v dropped below 0.5", out.Sim.FidelityBound)
	}
	if !out.Factors.Success {
		t.Fatal("approximate Shor (f_final = 0.5) failed to factor 15")
	}
	if out.Factors.Factor1*out.Factors.Factor2 != 15 {
		t.Fatalf("wrong factors %d × %d", out.Factors.Factor1, out.Factors.Factor2)
	}
}

func TestFactorTopLevel(t *testing.T) {
	out, err := Factor(15, RunOptions{Shots: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Factors.Success || out.Factors.Factor1*out.Factors.Factor2 != 15 {
		t.Fatalf("Factor(15) = %+v", out.Factors)
	}
	// Classical preprocessing shortcuts: even and prime-power inputs are
	// factored without simulation, primes are rejected.
	even, err := Factor(16, RunOptions{})
	if err != nil || !even.Factors.Success || even.Factors.Factor1*even.Factors.Factor2 != 16 {
		t.Errorf("Factor(16): %+v, %v", even, err)
	}
	pp, err := Factor(27, RunOptions{})
	if err != nil || !pp.Factors.Success || pp.Factors.Factor1*pp.Factors.Factor2 != 27 {
		t.Errorf("Factor(27): %+v, %v", pp, err)
	}
	if _, err := Factor(17, RunOptions{}); err == nil {
		t.Error("prime N accepted by Factor")
	}
	if _, err := Factor(2, RunOptions{}); err == nil {
		t.Error("tiny N accepted by Factor")
	}
}

// TestFactorClassicalSplitRunsNothing: under seed 1, Factor splits each of
// these N with a random base that shares a factor with N. That split is
// classical (no shots drawn), so the outcome carries no instance or
// simulation: no circuit ran for it.
func TestFactorClassicalSplitRunsNothing(t *testing.T) {
	for _, n := range []uint64{21, 33, 35} {
		out, err := Factor(n, RunOptions{Seed: 1})
		if err != nil {
			t.Fatalf("Factor(%d): %v", n, err)
		}
		f := out.Factors
		if !f.Success || f.Factor1*f.Factor2 != n || f.Factor1 == 1 || f.Factor2 == 1 || f.Shots != 0 {
			t.Errorf("Factor(%d) = %+v, want a non-trivial classical split", n, f)
		}
		if out.Instance != nil || out.Sim != nil {
			t.Errorf("Factor(%d): classical split reports instance %+v and sim %v", n, out.Instance, out.Sim)
		}
	}
}
