package order

import (
	"fmt"

	"repro/internal/circuit"
)

// Ordering names accepted by Compute and the "reorder" strategy.
const (
	// Identity keeps qubit q at level q.
	Identity = "identity"
	// Reversed places qubit q at level n−1−q.
	Reversed = "reversed"
	// Scored is the gate-locality heuristic: qubits that interact in
	// multi-qubit gates are placed on adjacent levels (Kimura-style static
	// scoring).
	Scored = "scored"
)

// Names returns the supported ordering names, sorted.
func Names() []string { return []string{Identity, Reversed, Scored} }

// Valid reports whether name is a supported ordering.
func Valid(name string) bool {
	switch name {
	case Identity, Reversed, Scored:
		return true
	}
	return false
}

// Compute resolves an ordering name against a circuit, returning the
// qubit→level permutation to install before simulation. Circuits carrying
// permutation gates only admit the identity order (their payloads address DD
// levels directly), so any other request is an error for them.
func Compute(name string, c *circuit.Circuit) ([]int, error) {
	n := c.NumQubits
	switch name {
	case Identity:
		return identity(n), nil
	case Reversed, Scored:
		if HasPermGate(c) {
			return nil, fmt.Errorf("order: circuit %q carries permutation gates, which require the identity order", c.Name)
		}
		if name == Reversed {
			perm := make([]int, n)
			for q := range perm {
				perm[q] = n - 1 - q
			}
			return perm, nil
		}
		return scored(c), nil
	default:
		return nil, fmt.Errorf("order: unknown ordering %q (supported: %v)", name, Names())
	}
}

// HasPermGate reports whether the circuit contains a permutation gate.
func HasPermGate(c *circuit.Circuit) bool {
	for _, g := range c.Gates() {
		if g.Kind == circuit.KindPerm {
			return true
		}
	}
	return false
}

func identity(n int) []int {
	perm := make([]int, n)
	for q := range perm {
		perm[q] = q
	}
	return perm
}

// scored builds the gate-locality ordering: an interaction graph weighted by
// how often qubit pairs appear in the same gate, then a greedy chain
// placement — start from the most-connected qubit and repeatedly append the
// unplaced qubit most connected to the placed set, assigning levels top-down
// so interacting qubits end up adjacent. Deterministic: all ties break on
// the lower qubit index.
func scored(c *circuit.Circuit) []int {
	n := c.NumQubits
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for _, g := range c.Gates() {
		qs := g.Qubits()
		for i := 0; i < len(qs); i++ {
			for j := i + 1; j < len(qs); j++ {
				a, b := qs[i], qs[j]
				w[a][b]++
				w[b][a]++
			}
		}
	}
	total := make([]float64, n)
	for q := range w {
		for r := range w[q] {
			total[q] += w[q][r]
		}
	}

	placed := make([]int, 0, n)
	used := make([]bool, n)
	pick := func(score func(q int) float64) int {
		best, bestScore := -1, 0.0
		for q := 0; q < n; q++ {
			if used[q] {
				continue
			}
			s := score(q)
			if best == -1 || s > bestScore {
				best, bestScore = q, s
			}
		}
		return best
	}
	start := pick(func(q int) float64 { return total[q] })
	placed = append(placed, start)
	used[start] = true
	conn := make([]float64, n)
	for len(placed) < n {
		last := placed[len(placed)-1]
		for q := 0; q < n; q++ {
			conn[q] += w[last][q]
		}
		// Prefer connection to the placed set; break ties toward overall
		// activity, then the lower index (via pick's scan order).
		next := pick(func(q int) float64 { return conn[q]*float64(n+1) + total[q]/(total[q]+1) })
		placed = append(placed, next)
		used[next] = true
	}

	perm := make([]int, n)
	for i, q := range placed {
		perm[q] = n - 1 - i
	}
	return perm
}
