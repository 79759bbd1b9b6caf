package gen

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// --- gate-count / depth formulas ---

func TestQAOAGateCountFormula(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{2, 1}, {6, 2}, {10, 3}} {
		cfg := QAOAConfig{Nodes: tc.n, Layers: tc.p, Seed: 7}
		c, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		m := len(cfg.Graph())
		want := tc.n + tc.p*(3*m+tc.n)
		if c.Len() != want {
			t.Errorf("qaoa n=%d p=%d (m=%d): %d gates, want %d", tc.n, tc.p, m, c.Len(), want)
		}
		if got := len(c.Blocks()); got != tc.p+1 {
			t.Errorf("qaoa n=%d p=%d: %d blocks, want %d", tc.n, tc.p, got, tc.p+1)
		}
	}
	// Fully determined instance: 2 nodes, 1 edge (EdgeProb 1), 1 layer:
	// H H · CX RZ CX · RX RX = 7 gates, depth 1+3+1 = 5.
	c, err := QAOAConfig{Nodes: 2, Layers: 1, EdgeProb: 1, Seed: 0}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 7 || c.Depth() != 5 {
		t.Errorf("qaoa 2-node instance: %d gates depth %d, want 7 gates depth 5", c.Len(), c.Depth())
	}
}

func TestVQEGateCountAndDepthFormula(t *testing.T) {
	for _, tc := range []struct {
		n, l  int
		topo  string
		pairs int
	}{
		{5, 2, VQELinear, 4},
		{6, 3, VQEFull, 15},
		{8, 1, "", 7}, // default topology is linear
	} {
		cfg := VQEConfig{Qubits: tc.n, Layers: tc.l, Topology: tc.topo, Seed: 3}
		c, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		want := (tc.l+1)*2*tc.n + tc.l*tc.pairs
		if c.Len() != want {
			t.Errorf("vqe n=%d l=%d %s: %d gates, want %d", tc.n, tc.l, tc.topo, c.Len(), want)
		}
		if tc.topo != VQEFull {
			// Linear-chain entanglers serialize into an n-1-step wavefront per
			// layer; rotations on already-passed qubits overlap it, so only
			// the first rotation layer (2) and the last qubit's final RY/RZ
			// (2) add to the critical path: depth = L·(n−1) + 4.
			wantDepth := tc.l*(tc.n-1) + 4
			if c.Depth() != wantDepth {
				t.Errorf("vqe n=%d l=%d linear: depth %d, want %d", tc.n, tc.l, c.Depth(), wantDepth)
			}
		}
	}
}

func TestCliffordTGateAndTCount(t *testing.T) {
	for _, tc := range []struct{ n, gates, tcount int }{{4, 80, 0}, {8, 200, 31}, {2, 50, 50}, {1, 10, 3}} {
		c, err := CliffordTConfig{Qubits: tc.n, Gates: tc.gates, TCount: tc.tcount, Seed: 11}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != tc.gates {
			t.Errorf("cliffordt n=%d: %d gates, want %d", tc.n, c.Len(), tc.gates)
		}
		counts := map[string]int{}
		for _, g := range c.Gates() {
			counts[g.Name]++
		}
		if got := counts["t"] + counts["tdg"]; got != tc.tcount {
			t.Errorf("cliffordt n=%d g=%d: t-count %d, want %d", tc.n, tc.gates, got, tc.tcount)
		}
	}
}

func TestWorkloadConfigValidation(t *testing.T) {
	if _, err := (QAOAConfig{Nodes: 0, Layers: 1}).Generate(); err == nil {
		t.Error("qaoa nodes=0 accepted")
	}
	if _, err := (QAOAConfig{Nodes: 4, Layers: 1, Gammas: []float64{1, 2}, Betas: []float64{1, 2}}).Generate(); err == nil {
		t.Error("qaoa schedule length mismatch accepted")
	}
	if _, err := (VQEConfig{Qubits: 4, Layers: 1, Topology: "ring"}).Generate(); err == nil {
		t.Error("vqe unknown topology accepted")
	}
	if _, err := (VQEConfig{Qubits: 4, Layers: 1, Angles: []float64{1}}).Generate(); err == nil {
		t.Error("vqe short angle list accepted")
	}
	if _, err := (CliffordTConfig{Qubits: 4, Gates: 10, TCount: 11}).Generate(); err == nil {
		t.Error("cliffordt t-count > gates accepted")
	}
}

// --- seed determinism ---

func TestWorkloadSeedDeterminism(t *testing.T) {
	builders := map[string]func() (*circuit.Circuit, error){
		"qaoa": func() (*circuit.Circuit, error) { return QAOAConfig{Nodes: 8, Layers: 2, Seed: 42}.Generate() },
		"vqe":  func() (*circuit.Circuit, error) { return VQEConfig{Qubits: 8, Layers: 2, Seed: 42}.Generate() },
		"cliffordt": func() (*circuit.Circuit, error) {
			return CliffordTConfig{Qubits: 8, Gates: 120, TCount: 24, Seed: 42}.Generate()
		},
	}
	for name, build := range builders {
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
			t.Errorf("%s: same seed produced different canonical encodings", name)
		}
	}
	// Different seeds must diverge (or the seed would be decorative).
	a := CliffordT(8, 120, 24, 1)
	b := CliffordT(8, 120, 24, 2)
	if bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Error("cliffordt: different seeds produced identical circuits")
	}
}

// --- QASM export / reparse round-trip ---

func TestWorkloadQASMRoundTrip(t *testing.T) {
	circs := []*circuit.Circuit{
		QAOAMaxCut(6, 2, 5),
		VQEAnsatz(6, 2, VQEFull, 5),
		CliffordT(6, 100, 17, 5),
	}
	for _, c := range circs {
		src, err := qasm.Export(c)
		if err != nil {
			t.Fatalf("%s: export: %v", c.Name, err)
		}
		back, err := qasm.Parse(src, c.Name)
		if err != nil {
			t.Fatalf("%s: reparse: %v", c.Name, err)
		}
		if !bytes.Equal(c.AppendCanonical(nil), back.Circuit.AppendCanonical(nil)) {
			t.Errorf("%s: QASM round-trip changed the canonical encoding", c.Name)
		}
	}
}

// --- Clifford-only instances stay exactly simulable ---

// TestCliffordOnlyExactAtAnyThreshold runs a TCount=0 instance under the
// memory-driven strategy with round fidelity 1.0 at aggressive thresholds:
// the zero-budget rounds must all be no-ops, so the final state is
// amplitude-identical to the exact reference and the tracked fidelity
// stays exactly 1.0 regardless of threshold.
func TestCliffordOnlyExactAtAnyThreshold(t *testing.T) {
	const n = 8
	c := CliffordT(n, 200, 0, 9)

	eres, err := sim.Run(c, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := eres.Manager.ToVector(eres.Final, n)

	// Stabilizer-state sanity: every nonzero amplitude has equal magnitude
	// and the support size is a power of two.
	support := 0
	mag := 0.0
	for _, a := range want {
		if cmplx.Abs(a) > 1e-9 {
			support++
			if mag == 0 {
				mag = cmplx.Abs(a)
			} else if math.Abs(cmplx.Abs(a)-mag) > 1e-9 {
				t.Fatalf("clifford-only state has unequal nonzero magnitudes: %v vs %v", cmplx.Abs(a), mag)
			}
		}
	}
	if support == 0 || support&(support-1) != 0 {
		t.Fatalf("clifford-only state support %d is not a power of two", support)
	}

	for _, threshold := range []int{4, 16, 64} {
		res, err := sim.Run(c, sim.Options{
			Strategy: &core.MemoryDriven{Threshold: threshold, RoundFidelity: 1.0, Growth: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.EstimatedFidelity != 1.0 {
			t.Errorf("threshold=%d: tracked fidelity %v, want exactly 1.0", threshold, res.EstimatedFidelity)
		}
		got := res.Manager.ToVector(res.Final, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threshold=%d: amplitude[%d] = %v differs from exact %v", threshold, i, got[i], want[i])
			}
		}
	}
}

// --- spec round-trips for the new families ---

func TestFromSpecNewFamilies(t *testing.T) {
	for spec, wantClass := range map[string]string{
		"qaoa:8:2:3":           ClassQAOA,
		"vqe:8:3:full:1":       ClassVQE,
		"cliffordt:8:100:20:1": ClassCliffordT,
		"cliffordt:8:100:0:1":  ClassCliffordT,
	} {
		c, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := Classify(c); got != wantClass {
			t.Errorf("%s: classified %q, want %q", spec, got, wantClass)
		}
	}
}

func TestFromSpecRejectsWithoutPanic(t *testing.T) {
	for _, spec := range []string{
		"qft:0", "qft:-3", "adder:100", "random:0:10", "qaoa:40", "qaoa:8:0",
		"vqe:8:3:ring", "cliffordt:8:10:11", "qsup:99x99:5", "random:8:999999999",
	} {
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("%s: accepted, want error", spec)
		}
	}
}
