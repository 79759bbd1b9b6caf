package sim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
)

func randomCircuit(n, gates int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n, "random")
	names := []string{"x", "y", "z", "h", "s", "t", "sx"}
	for i := 0; i < gates; i++ {
		target := rng.Intn(n)
		var controls []dd.Control
		if n > 1 && rng.Intn(2) == 0 {
			q := rng.Intn(n)
			for q == target {
				q = rng.Intn(n)
			}
			controls = append(controls, dd.Control{Qubit: q, Positive: rng.Intn(4) != 0})
		}
		switch rng.Intn(3) {
		case 0:
			c.Apply(names[rng.Intn(len(names))], nil, target, controls...)
		case 1:
			c.Apply("rz", []float64{rng.Float64()*2*math.Pi - math.Pi}, target, controls...)
		default:
			c.Apply("ry", []float64{rng.Float64()*2*math.Pi - math.Pi}, target, controls...)
		}
	}
	return c
}

func denseRun(c *circuit.Circuit, initial uint64) *dense.State {
	ds := dense.NewBasisState(c.NumQubits, initial)
	for _, g := range c.Gates() {
		switch g.Kind {
		case circuit.KindUnitary:
			u, err := g.Matrix()
			if err != nil {
				panic(err)
			}
			ctls := make([]dense.ControlSpec, len(g.Controls))
			for i, ct := range g.Controls {
				ctls[i] = dense.ControlSpec{Qubit: ct.Qubit, Positive: ct.Positive}
			}
			ds.ApplyGate(u, g.Target, ctls...)
		case circuit.KindPerm:
			ctls := make([]dense.ControlSpec, len(g.Controls))
			for i, ct := range g.Controls {
				ctls[i] = dense.ControlSpec{Qubit: ct.Qubit, Positive: ct.Positive}
			}
			ds.ApplyPermutation(g.Perm, g.PermWidth, ctls...)
		}
	}
	return ds
}

func statesAgreeUpToPhase(t *testing.T, m *dd.Manager, e dd.VEdge, ds *dense.State, tol float64) {
	t.Helper()
	got := m.ToVector(e, ds.N)
	ref, best := -1, 0.0
	for i, a := range ds.Amp {
		if ab := cmplx.Abs(a); ab > best {
			best, ref = ab, i
		}
	}
	phase := ds.Amp[ref] / got[ref]
	phase /= complex(cmplx.Abs(phase), 0)
	for i := range got {
		if cmplx.Abs(got[i]*phase-ds.Amp[i]) > tol {
			t.Fatalf("amplitude %d: %v vs %v", i, got[i]*phase, ds.Amp[i])
		}
	}
}

func TestExactSimulationMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		c := randomCircuit(n, 10+rng.Intn(40), rng)
		initial := uint64(rng.Intn(1 << uint(n)))
		s := New()
		res, err := s.Run(c, Options{InitialState: initial})
		if err != nil {
			t.Fatal(err)
		}
		if res.EstimatedFidelity != 1 || res.FidelityBound != 1 || len(res.Rounds) != 0 {
			t.Fatal("exact run recorded approximation rounds")
		}
		statesAgreeUpToPhase(t, s.M, res.Final, denseRun(c, initial), 1e-7)
	}
}

func TestSimulationWithPermGates(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	n := 5
	c := circuit.New(n, "perm-mix")
	c.H(4)
	c.H(3)
	perm := rng.Perm(8)
	c.Permutation(perm, 3, dd.PosControl(4))
	c.CX(3, 0)
	perm2 := rng.Perm(4)
	c.Permutation(perm2, 2, dd.PosControl(3), dd.PosControl(4))
	s := New()
	res, err := s.Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	statesAgreeUpToPhase(t, s.M, res.Final, denseRun(c, 0), 1e-9)
}

func TestMemoryDrivenRun(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	n := 8
	c := randomCircuit(n, 120, rng)
	s := New()
	res, err := s.Run(c, Options{
		Strategy:           &core.MemoryDriven{Threshold: 16, RoundFidelity: 0.98},
		CollectSizeHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("memory-driven never triggered on a dense random circuit")
	}
	if res.EstimatedFidelity >= 1 {
		t.Error("approximation rounds recorded but fidelity still 1")
	}
	if res.EstimatedFidelity < res.FidelityBound-1e-9 {
		t.Errorf("estimate %v below bound %v", res.EstimatedFidelity, res.FidelityBound)
	}
	if len(res.SizeHistory) != c.Len() {
		t.Errorf("size history length %d, want %d", len(res.SizeHistory), c.Len())
	}
}

func TestFidelityTrackingEndToEnd(t *testing.T) {
	// The tracked product of per-round fidelities (Section V) must closely
	// estimate the true fidelity between exact and approximate final
	// states. Lemma 1 makes the product exact for back-to-back truncations
	// (covered in core's tests); with unitaries interleaved the product is
	// the paper's tracked estimate — here we bound its deviation and check
	// the designed lower bound holds.
	rng := rand.New(rand.NewSource(83))
	triggered := 0
	for trial := 0; trial < 5; trial++ {
		n := 6 + rng.Intn(3)
		c := randomCircuit(n, 80, rng)
		cmp, err := RunAndCompare(c, Options{
			Strategy: &core.MemoryDriven{Threshold: 12, RoundFidelity: 0.97},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(cmp.Approx.Rounds) == 0 {
			continue
		}
		triggered++
		if cmp.EstimateError > 0.02 {
			t.Fatalf("fidelity estimate off: true %v vs product %v (err %v, %d rounds)",
				cmp.TrueFidelity, cmp.Approx.EstimatedFidelity, cmp.EstimateError, len(cmp.Approx.Rounds))
		}
		if cmp.TrueFidelity < cmp.Approx.FidelityBound-1e-6 {
			t.Fatalf("true fidelity %v below designed bound %v",
				cmp.TrueFidelity, cmp.Approx.FidelityBound)
		}
	}
	if triggered == 0 {
		t.Fatal("no trial triggered approximation")
	}
}

func TestFidelityDrivenRun(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	n := 7
	c := randomCircuit(n, 100, rng)
	// Mark block boundaries every 10 gates.
	blocked := circuit.New(n, "blocked")
	for i, g := range c.Gates() {
		blocked.Append(&g)
		if (i+1)%10 == 0 {
			blocked.EndBlock()
		}
	}
	strat := core.NewFidelityDriven(0.5, 0.9)
	cmp, err := RunAndCompare(blocked, Options{Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TrueFidelity < 0.5-1e-6 {
		t.Errorf("final fidelity %v below guaranteed 0.5", cmp.TrueFidelity)
	}
	if len(cmp.Approx.Rounds) > strat.MaxRounds() {
		t.Errorf("%d rounds exceed MaxRounds %d", len(cmp.Approx.Rounds), strat.MaxRounds())
	}
	if cmp.EstimateError > 0.02 {
		t.Errorf("estimate error %v", cmp.EstimateError)
	}
}

func TestGateCacheReuse(t *testing.T) {
	// Applying the same gate many times must not rebuild its DD each time:
	// node creation should stay far below the no-cache count.
	c := circuit.New(4, "repeat")
	for i := 0; i < 50; i++ {
		c.H(2)
	}
	s := New()
	if _, err := s.Run(c, Options{}); err != nil {
		t.Fatal(err)
	}
	created := s.M.Stats().MNodesCreated
	if created > 40 {
		t.Errorf("gate cache ineffective: %d matrix nodes created for 50 repeats of one gate", created)
	}
}

func TestCleanupTriggers(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	c := randomCircuit(8, 200, rng)
	s := New()
	res, err := s.Run(c, Options{cleanupHighWater: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cleanups == 0 {
		t.Error("cleanup never triggered with a tiny high-water mark")
	}
	// Result must still match dense.
	statesAgreeUpToPhase(t, s.M, res.Final, denseRun(c, 0), 1e-7)
}

func TestEmptyCircuit(t *testing.T) {
	c := circuit.New(3, "empty")
	s := New()
	res, err := s.Run(c, Options{InitialState: 0b101})
	if err != nil {
		t.Fatal(err)
	}
	if p := s.M.Probability(res.Final, 0b101, 3); math.Abs(p-1) > 1e-12 {
		t.Errorf("empty circuit moved the state: %v", p)
	}
	if res.MaxDDSize != 3 {
		t.Errorf("MaxDDSize %d, want 3", res.MaxDDSize)
	}
}

func TestInvalidStrategyConfig(t *testing.T) {
	c := circuit.New(2, "x")
	c.H(0)
	s := New()
	_, err := s.Run(c, Options{Strategy: &core.MemoryDriven{Threshold: -1, RoundFidelity: 0.9}})
	if err == nil {
		t.Error("invalid strategy accepted")
	}
}

func TestGHZFidelityDrivenNoOpOnTinyDD(t *testing.T) {
	// A GHZ circuit's DD stays tiny; fidelity-driven rounds find nothing to
	// remove and the final state must be exact.
	n := 10
	c := circuit.New(n, "ghz")
	c.H(n - 1)
	for q := n - 1; q > 0; q-- {
		c.CX(q, q-1)
	}
	cmp, err := RunAndCompare(c, Options{Strategy: core.NewFidelityDriven(0.5, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmp.TrueFidelity-1) > 1e-9 {
		t.Errorf("GHZ approximated although nothing is removable: F=%v", cmp.TrueFidelity)
	}
	if len(cmp.Approx.Rounds) != 0 {
		t.Errorf("no-op rounds recorded: %d", len(cmp.Approx.Rounds))
	}
}
