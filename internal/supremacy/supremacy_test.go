package supremacy

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

func TestBondPatternsCoverEveryBondOnce(t *testing.T) {
	for _, grid := range [][2]int{{2, 2}, {3, 3}, {4, 5}, {5, 4}, {1, 6}} {
		rows, cols := grid[0], grid[1]
		patterns := bondPatterns(rows, cols)
		seen := map[bond]int{}
		for _, layer := range patterns {
			occupied := map[int]bool{}
			for _, b := range layer {
				if occupied[b.a] || occupied[b.b] {
					t.Fatalf("%dx%d: overlapping bonds within a layer", rows, cols)
				}
				occupied[b.a], occupied[b.b] = true, true
				seen[b]++
			}
		}
		wantBonds := rows*(cols-1) + (rows-1)*cols
		if len(seen) != wantBonds {
			t.Fatalf("%dx%d: %d distinct bonds over 8 layers, want %d", rows, cols, len(seen), wantBonds)
		}
		for b, count := range seen {
			if count != 1 {
				t.Fatalf("%dx%d: bond %v appears %d times per 8 cycles", rows, cols, b, count)
			}
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	cfg := Config{Rows: 3, Cols: 3, Depth: 10, Seed: 0}
	a, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := cfg.Generate()
	if a.Len() != b.Len() {
		t.Fatal("same config produced different lengths")
	}
	for i := range a.Gates() {
		if a.Gates()[i].String() != b.Gates()[i].String() {
			t.Fatalf("gate %d differs for identical seeds", i)
		}
	}
	cfg.Seed = 1
	c, _ := cfg.Generate()
	diff := c.Len() != a.Len()
	if !diff {
		for i := range a.Gates() {
			if a.Gates()[i].String() != c.Gates()[i].String() {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical circuits")
	}
}

func TestRuleConformance(t *testing.T) {
	cfg := Config{Rows: 4, Cols: 4, Depth: 16, Seed: 2}
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Qubits()
	// Replay the circuit cycle by cycle using the block boundaries.
	blocks := c.Blocks()
	gates := c.Gates()
	start := 0
	hadT := make([]bool, n)
	lastSingle := make([]string, n)
	inCZPrev := make([]bool, n)
	for cycleIdx, end := range blocks {
		inCZNow := make([]bool, n)
		singles := map[int]string{}
		for _, g := range gates[start : end+1] {
			switch g.Name {
			case "h":
				if cycleIdx != 0 {
					t.Fatalf("H outside cycle 0 (cycle %d)", cycleIdx)
				}
			case "z": // CZ
				inCZNow[g.Target] = true
				inCZNow[g.Controls[0].Qubit] = true
			case "t", "sx", "sy":
				singles[g.Target] = g.Name
			default:
				t.Fatalf("unexpected gate %q", g.Name)
			}
		}
		for q, name := range singles {
			if cycleIdx == 0 {
				t.Fatal("single-qubit rule gate in the Hadamard cycle")
			}
			if !inCZPrev[q] {
				t.Fatalf("cycle %d: single-qubit gate on q%d which had no CZ in previous cycle", cycleIdx, q)
			}
			if inCZNow[q] {
				t.Fatalf("cycle %d: single-qubit gate on q%d which is in a CZ this cycle", cycleIdx, q)
			}
			if !hadT[q] && name != "t" {
				t.Fatalf("cycle %d: first single-qubit gate on q%d is %q, want t", cycleIdx, q, name)
			}
			if hadT[q] && name == "t" {
				t.Fatalf("cycle %d: second T on q%d", cycleIdx, q)
			}
			if name != "t" && name == lastSingle[q] {
				t.Fatalf("cycle %d: repeated %q on q%d", cycleIdx, name, q)
			}
			if name == "t" {
				hadT[q] = true
			}
			lastSingle[q] = name
		}
		inCZPrev = inCZNow
		start = end + 1
	}
	counts := map[string]int{}
	for _, g := range c.Gates() {
		counts[g.Name]++
	}
	if counts["h"] != n {
		t.Errorf("%d Hadamards, want %d", counts["h"], n)
	}
	if counts["t"] == 0 || counts["z"] == 0 {
		t.Errorf("missing T or CZ gates: %v", counts)
	}
}

func TestBlocksPerCycle(t *testing.T) {
	cfg := Config{Rows: 2, Cols: 3, Depth: 9, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Blocks()); got != 1+cfg.Depth {
		t.Errorf("%d blocks, want %d (H layer + one per cycle)", got, 1+cfg.Depth)
	}
	if c.Name != cfg.Name() || cfg.Name() != "qsup_2x3_9_0" {
		t.Errorf("name %q / %q", c.Name, cfg.Name())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rows: 0, Cols: 3, Depth: 5},
		{Rows: 1, Cols: 1, Depth: 5},
		{Rows: 2, Cols: 2, Depth: 0},
	}
	for _, cfg := range bad {
		if _, err := cfg.Generate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestSupremacyCircuitIsDDHostile(t *testing.T) {
	// The motivating property (Example 9): the state DD of a supremacy
	// circuit grows rapidly toward the 2^n worst case, unlike structured
	// circuits. 3x3 at depth 12 should blow well past the GHZ-scale sizes.
	cfg := Config{Rows: 3, Cols: 3, Depth: 12, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(c, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Qubits()
	if res.MaxDDSize < 1<<(uint(n)-3) {
		t.Errorf("supremacy DD stayed small: max %d nodes on %d qubits", res.MaxDDSize, n)
	}
	_ = circuit.KindUnitary // keep import for clarity of gate kinds used above
}
