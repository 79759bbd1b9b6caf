package dd

import "fmt"

// MakeGateDD builds the n-qubit operation DD for a single-qubit gate u
// (row-major [u00 u01 u10 u11]) applied to target, optionally guarded by an
// arbitrary set of positive/negative controls. Target and control qubits are
// placed at their levels under the manager's variable order; the
// construction extends the 2×2 gate level by level: identity structure on
// uninvolved levels, identity-vs-gate branching at control levels.
func (m *Manager) MakeGateDD(n int, u [4]complex128, target int, controls ...Control) MEdge {
	if target < 0 || target >= n {
		panic(fmt.Sprintf("dd: gate target %d out of range for %d qubits", target, n))
	}
	tLevel := m.QubitLevel(target)
	if tLevel >= n {
		panic(fmt.Sprintf("dd: gate target %d maps to level %d beyond the %d-qubit register", target, tLevel, n))
	}
	// ctrl is keyed by level, where the construction consumes it.
	ctrl := make(map[int]bool, len(controls))
	for _, c := range controls {
		if c.Qubit < 0 || c.Qubit >= n {
			panic(fmt.Sprintf("dd: control qubit %d out of range for %d qubits", c.Qubit, n))
		}
		if c.Qubit == target {
			panic("dd: control coincides with target")
		}
		cLevel := m.QubitLevel(c.Qubit)
		if cLevel >= n {
			panic(fmt.Sprintf("dd: control qubit %d maps to level %d beyond the %d-qubit register", c.Qubit, cLevel, n))
		}
		if _, dup := ctrl[cLevel]; dup {
			panic(fmt.Sprintf("dd: duplicate control on qubit %d", c.Qubit))
		}
		ctrl[cLevel] = c.Positive
	}

	// Quadrants of the operation restricted to levels [0, q), assuming all
	// controls below the target level are satisfied.
	em := [4]MEdge{
		m.mEdge(u[0], m.mTerminal),
		m.mEdge(u[1], m.mTerminal),
		m.mEdge(u[2], m.mTerminal),
		m.mEdge(u[3], m.mTerminal),
	}
	zero := m.MZero()

	for q := 0; q < tLevel; q++ {
		idBelow := m.Identity(q)
		if positive, isCtrl := ctrl[q]; isCtrl {
			// If the control is not satisfied the whole operation is the
			// identity, which contributes only to the diagonal quadrants.
			for i := 0; i < 4; i++ {
				diag := i == 0 || i == 3
				idPart := zero
				if diag {
					idPart = idBelow
				}
				if positive {
					em[i] = m.MakeMNode(int32(q), [4]MEdge{idPart, zero, zero, em[i]})
				} else {
					em[i] = m.MakeMNode(int32(q), [4]MEdge{em[i], zero, zero, idPart})
				}
			}
		} else {
			for i := 0; i < 4; i++ {
				em[i] = m.MakeMNode(int32(q), [4]MEdge{em[i], zero, zero, em[i]})
			}
		}
	}

	return m.liftAbove(m.MakeMNode(int32(tLevel), em), tLevel+1, n, ctrl)
}

// ExtendMatrix lifts an operation DD covering qubits [0, fromLevel) to the
// full n-qubit system, optionally adding controls on qubits ≥ fromLevel.
// Controls below fromLevel are rejected. This is how Shor's controlled
// modular-multiplication permutation matrices are embedded into the
// 3n-qubit system. ExtendMatrix (like MakePermutationDD) addresses levels
// directly and requires the identity variable order; the simulation layer
// rejects reordering for circuits carrying permutation gates.
func (m *Manager) ExtendMatrix(e MEdge, fromLevel, n int, controls ...Control) MEdge {
	if fromLevel < 0 || fromLevel > n {
		panic(fmt.Sprintf("dd: ExtendMatrix fromLevel %d out of range for %d qubits", fromLevel, n))
	}
	ctrl := make(map[int]bool, len(controls))
	for _, c := range controls {
		if c.Qubit < fromLevel || c.Qubit >= n {
			panic(fmt.Sprintf("dd: ExtendMatrix control %d outside [%d,%d)", c.Qubit, fromLevel, n))
		}
		if _, dup := ctrl[c.Qubit]; dup {
			panic(fmt.Sprintf("dd: duplicate control on qubit %d", c.Qubit))
		}
		ctrl[c.Qubit] = c.Positive
	}
	return m.liftAbove(e, fromLevel, n, ctrl)
}

// liftAbove extends the operation e on levels [0, from) level by level up
// to n: identity structure on uninvolved levels, identity-vs-e branching at
// the control levels ctrl maps to their polarity.
func (m *Manager) liftAbove(e MEdge, from, n int, ctrl map[int]bool) MEdge {
	zero := m.MZero()
	for q := from; q < n; q++ {
		idBelow := m.Identity(q)
		if positive, isCtrl := ctrl[q]; isCtrl {
			if positive {
				e = m.MakeMNode(int32(q), [4]MEdge{idBelow, zero, zero, e})
			} else {
				e = m.MakeMNode(int32(q), [4]MEdge{e, zero, zero, idBelow})
			}
		} else {
			e = m.MakeMNode(int32(q), [4]MEdge{e, zero, zero, e})
		}
	}
	return e
}
