package dd

import "fmt"

// Identity returns the identity operation DD on n qubits. The result is
// cached inside the manager.
func (m *Manager) Identity(n int) MEdge {
	if n < 0 {
		panic("dd: Identity on negative qubit count")
	}
	for len(m.idChain) <= n {
		k := len(m.idChain) - 1
		prev := m.idChain[k]
		next := m.MakeMNode(int32(k), [4]MEdge{prev, m.MZero(), m.MZero(), prev})
		m.idChain = append(m.idChain, next)
	}
	return m.idChain[n]
}

// FromMatrix builds a matrix DD from a dense 2^n × 2^n matrix given in
// row-major order. Intended for tests and small operators.
func (m *Manager) FromMatrix(mat [][]complex128) (MEdge, error) {
	dim := len(mat)
	n := 0
	for 1<<uint(n) < dim {
		n++
	}
	if dim == 0 || 1<<uint(n) != dim {
		return MEdge{}, fmt.Errorf("dd: matrix dimension %d is not a power of two", dim)
	}
	for i, row := range mat {
		if len(row) != dim {
			return MEdge{}, fmt.Errorf("dd: matrix row %d has length %d, want %d", i, len(row), dim)
		}
	}
	if n == 0 {
		return m.mEdge(mat[0][0], m.mTerminal), nil
	}
	return m.fromMat(int32(n-1), 0, 0, mat), nil
}

func (m *Manager) fromMat(level int32, row, col int, mat [][]complex128) MEdge {
	if level < 0 {
		return m.mEdge(mat[row][col], m.mTerminal)
	}
	size := 1 << uint(level)
	var e [4]MEdge
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			e[2*r+c] = m.fromMat(level-1, row+r*size, col+c*size, mat)
		}
	}
	return m.MakeMNode(level, e)
}

// ToMatrix expands the n-qubit operation into a dense matrix. Intended for
// tests; cost is O(4^n).
func (m *Manager) ToMatrix(e MEdge, n int) [][]complex128 {
	dim := 1 << uint(n)
	out := make([][]complex128, dim)
	for i := range out {
		out[i] = make([]complex128, dim)
	}
	m.fillMatrix(e.W.Complex(), e.N, n-1, 0, 0, out)
	return out
}

func (m *Manager) fillMatrix(w complex128, node *MNode, level, row, col int, out [][]complex128) {
	if w == 0 {
		return
	}
	if level < 0 {
		out[row][col] = w
		return
	}
	size := 1 << uint(level)
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			child := node.E[2*r+c]
			m.fillMatrix(w*child.W.Complex(), child.N, level-1, row+r*size, col+c*size, out)
		}
	}
}

// ConjugateTranspose returns the conjugate transpose (adjoint) of the
// operation DD.
func (m *Manager) ConjugateTranspose(e MEdge) MEdge {
	if m.adjointMemo == nil {
		m.adjointMemo = make(map[*MNode]MEdge, 256)
	} else {
		clear(m.adjointMemo)
	}
	res := m.adjointNode(e.N)
	w := e.W.Complex()
	return m.ScaleM(res, complex(real(w), -imag(w)))
}

// adjointNode returns the adjoint of the weight-stripped subtree under n,
// memoized per node: an operator DD shares children across its edges, so
// without the memo the walk visits every path (2^n calls for a lifted
// single-qubit operator).
func (m *Manager) adjointNode(n *MNode) MEdge {
	if n.IsTerminal() {
		return MEdge{W: m.CN.One, N: m.mTerminal}
	}
	if r, ok := m.adjointMemo[n]; ok {
		return r
	}
	var e [4]MEdge
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			child := n.E[2*r+c]
			sub := m.adjointNode(child.N)
			w := child.W.Complex()
			// Transpose swaps (r,c); adjoint also conjugates.
			e[2*c+r] = m.ScaleM(sub, complex(real(w), -imag(w)))
		}
	}
	r := m.MakeMNode(n.Var, e)
	m.adjointMemo[n] = r
	return r
}
