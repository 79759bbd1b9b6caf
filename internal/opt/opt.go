package opt

import (
	"math"
	"slices"

	"repro/internal/circuit"
)

// Stats reports what an optimization pass did.
type Stats struct {
	CancelledPairs int
	MergedGates    int
	DroppedGates   int // identity/zero-angle gates removed
	Passes         int
}

// rotation axes whose adjacent applications merge by angle addition.
var mergeable = map[string]bool{"rx": true, "ry": true, "rz": true, "p": true, "u1": true, "phase": true}

const angleEps = 1e-12

// Optimize returns an equivalent, usually shorter circuit. Block boundaries
// are dropped (the optimization may move or remove the gates they pointed
// at — the paper's observation about optimized circuits losing their block
// structure).
func Optimize(c *circuit.Circuit) (*circuit.Circuit, Stats) {
	gates := append([]circuit.Gate(nil), c.Gates()...)
	var stats Stats
	for {
		stats.Passes++
		changed := false
		removed := make([]bool, len(gates))

		for i := 0; i < len(gates); i++ {
			if removed[i] {
				continue
			}
			gi := gates[i]
			if !optimizable(gi) {
				continue
			}
			qi := gi.Qubits()
			for j := i + 1; j < len(gates); j++ {
				if removed[j] {
					continue
				}
				gj := gates[j]
				qj := gj.Qubits()
				if disjoint(qi, qj) {
					continue // commutes trivially; keep scanning
				}
				// First interacting gate decides; only exact-footprint
				// matches are rewritten.
				if sameFootprint(gi, gj) && optimizable(gj) {
					if isInversePair(gi, gj) {
						removed[i], removed[j] = true, true
						stats.CancelledPairs++
						changed = true
					} else if merged, ok := mergeRotations(gi, gj); ok {
						gates[i] = merged
						removed[j] = true
						stats.MergedGates++
						changed = true
					}
				}
				break
			}
		}

		next := gates[:0:0]
		for i, g := range gates {
			if removed[i] {
				continue
			}
			if isIdentityGate(g) {
				stats.DroppedGates++
				changed = true
				continue
			}
			next = append(next, g)
		}
		gates = next
		if !changed {
			break
		}
	}

	out := circuit.New(c.NumQubits, c.Name+"_opt")
	for _, g := range gates {
		out.Append(g)
	}
	return out, stats
}

func optimizable(g circuit.Gate) bool {
	return g.Kind == circuit.KindUnitary
}

func disjoint(a, b []int) bool {
	for _, q := range b {
		if slices.Contains(a, q) {
			return false
		}
	}
	return true
}

// sameFootprint reports whether two gates act on the same target with the
// same control set (order-insensitive, polarity-sensitive).
func sameFootprint(a, b circuit.Gate) bool {
	if a.Target != b.Target || len(a.Controls) != len(b.Controls) {
		return false
	}
	for _, ca := range a.Controls {
		found := false
		for _, cb := range b.Controls {
			if ca == cb {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func isInversePair(a, b circuit.Gate) bool {
	invName, invParams, err := circuit.InverseGate(a.Name, a.Params)
	if err != nil {
		return false
	}
	if !namesMatch(invName, b.Name) || len(invParams) != len(b.Params) {
		return false
	}
	for i := range invParams {
		if !anglesEqual(invParams[i], b.Params[i]) {
			return false
		}
	}
	return true
}

// namesMatch treats gate-name aliases as equal.
func namesMatch(a, b string) bool {
	alias := func(n string) string {
		switch n {
		case "u1", "phase":
			return "p"
		case "u":
			return "u3"
		case "i":
			return "id"
		default:
			return n
		}
	}
	return alias(a) == alias(b)
}

// anglesEqual compares rotation angles modulo 4π (the period of SU(2)
// rotations; p/u1 have period 2π, for which 4π-equality is sufficient too).
func anglesEqual(a, b float64) bool {
	d := math.Mod(a-b, 4*math.Pi)
	if d < 0 {
		d += 4 * math.Pi
	}
	return d < angleEps || 4*math.Pi-d < angleEps
}

func mergeRotations(a, b circuit.Gate) (circuit.Gate, bool) {
	if !namesMatch(a.Name, b.Name) || !mergeable[aliasName(a.Name)] {
		return circuit.Gate{}, false
	}
	if len(a.Params) != 1 || len(b.Params) != 1 {
		return circuit.Gate{}, false
	}
	merged := a
	merged.Params = []float64{a.Params[0] + b.Params[0]}
	return merged, true
}

func aliasName(n string) string {
	switch n {
	case "u1", "phase":
		return "p"
	default:
		return n
	}
}

// isIdentityGate recognizes explicit identities and zero-angle rotations.
func isIdentityGate(g circuit.Gate) bool {
	if g.Kind != circuit.KindUnitary {
		return false
	}
	switch g.Name {
	case "id", "i":
		return true
	case "rx", "ry", "rz":
		return len(g.Params) == 1 && anglesEqual(g.Params[0], 0)
	case "p", "u1", "phase":
		if len(g.Params) != 1 {
			return false
		}
		d := math.Mod(g.Params[0], 2*math.Pi)
		if d < 0 {
			d += 2 * math.Pi
		}
		return d < angleEps || 2*math.Pi-d < angleEps
	default:
		return false
	}
}
