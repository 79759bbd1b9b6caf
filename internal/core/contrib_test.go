package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dd"
)

func fig1State(t *testing.T, m *dd.Manager) dd.VEdge {
	t.Helper()
	s := 1 / math.Sqrt(10)
	vec := []complex128{
		complex(s, 0), 0, 0, complex(-s, 0),
		0, complex(2*s, 0), 0, complex(2*s, 0),
	}
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomState(t *testing.T, m *dd.Manager, n int, fill float64, rng *rand.Rand) dd.VEdge {
	t.Helper()
	vec := make([]complex128, 1<<uint(n))
	var norm float64
	nonzero := 0
	for i := range vec {
		if rng.Float64() < fill {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			vec[i] = complex(re, im)
			norm += re*re + im*im
			nonzero++
		}
	}
	if nonzero == 0 {
		vec[0] = 1
		norm = 1
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range vec {
		vec[i] *= inv
	}
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPaperExample7Contributions(t *testing.T) {
	// Example 7 walks the Fig. 1b DD: root q2 has contribution 1, the
	// right-hand q1 and q0 nodes 0.8 each, the left q1 node 0.2 and its q0
	// successors 0.1 each. The canonical (maximally shared) DD merges the
	// paper's two |1⟩-pattern q0 nodes into one, whose contribution is the
	// sum 0.8 + 0.1 = 0.9; the remaining q0 node keeps 0.1.
	m := dd.New()
	e := fig1State(t, m)
	contribs := Contributions(m, e)

	byLevel := map[int32][]float64{}
	for n, c := range contribs {
		byLevel[n.Var] = append(byLevel[n.Var], c)
	}
	if len(byLevel[2]) != 1 || math.Abs(byLevel[2][0]-1) > 1e-12 {
		t.Errorf("q2 contributions = %v, want [1]", byLevel[2])
	}
	wantSet := func(got []float64, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		used := make([]bool, len(want))
	outer:
		for _, g := range got {
			for i, w := range want {
				if !used[i] && math.Abs(g-w) < 1e-12 {
					used[i] = true
					continue outer
				}
			}
			return false
		}
		return true
	}
	if !wantSet(byLevel[1], []float64{0.2, 0.8}) {
		t.Errorf("q1 contributions = %v, want {0.2, 0.8}", byLevel[1])
	}
	if !wantSet(byLevel[0], []float64{0.1, 0.9}) {
		t.Errorf("q0 contributions = %v, want {0.1, 0.9} (0.8+0.1 merged by sharing)", byLevel[0])
	}
}

// levelSums adds the contributions of the nodes on each of the n levels.
func levelSums(contrib map[*dd.VNode]float64, n int) []float64 {
	sums := make([]float64, n)
	for node, c := range contrib {
		sums[node.Var] += c
	}
	return sums
}

func TestLevelSumsAreOne(t *testing.T) {
	// Definition 2: "for each level i, the contributions of nodes on this
	// level add up to 1".
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 20; trial++ {
		m := dd.New()
		n := 2 + rng.Intn(7)
		e := randomState(t, m, n, 0.2+rng.Float64()*0.8, rng)
		sums := levelSums(Contributions(m, e), n)
		for q, s := range sums {
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("n=%d level %d contribution sum = %v, want 1", n, q, s)
			}
		}
	}
}

func TestContributionsOfBasisState(t *testing.T) {
	m := dd.New()
	e := m.BasisState(5, 0b10110)
	contribs := Contributions(m, e)
	if len(contribs) != 5 {
		t.Fatalf("basis state has %d contributing nodes, want 5", len(contribs))
	}
	for n, c := range contribs {
		if math.Abs(c-1) > 1e-12 {
			t.Errorf("node q%d contribution %v, want 1", n.Var, c)
		}
	}
}

func TestContributionsZeroEdge(t *testing.T) {
	m := dd.New()
	if got := Contributions(m, m.VZero()); len(got) != 0 {
		t.Errorf("zero edge has %d contributions", len(got))
	}
}
