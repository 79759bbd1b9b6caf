package density

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dd"
)

// State is an n-qubit density matrix ρ stored as a matrix DD. It borrows the
// owning dd.Manager's unique tables, node pools, compute caches, and variable
// order — a State is just a root edge plus bookkeeping, so the statevector
// and density backends share every piece of PR 2 infrastructure.
//
// Invariant: Tr ρ = 1 (within float tolerance). Unitary application and
// trace-preserving channels maintain it.
type State struct {
	M    *dd.Manager
	N    int
	Root dd.MEdge
}

// NewBasis returns the pure density matrix |bits⟩⟨bits| on n qubits.
func NewBasis(m *dd.Manager, n int, bits uint64) *State {
	return FromPure(m, n, m.BasisState(n, bits))
}

// FromPure returns ρ = |v⟩⟨v| for a normalized state DD. This is the bridge
// from the statevector representation: the noiseless differential tests
// compare density evolution against the outer product of the statevector
// result.
func FromPure(m *dd.Manager, n int, v dd.VEdge) *State {
	return &State{M: m, N: n, Root: m.OuterProduct(v, v)}
}

// ApplyUnitary evolves ρ → U ρ U†. U must be an operation DD over the same
// qubits (e.g. from MakeGateDD or MakePermutationDD).
func (s *State) ApplyUnitary(u dd.MEdge) {
	s.Root = s.M.MulMat(s.M.MulMat(u, s.Root), s.M.ConjugateTranspose(u))
}

// ApplyKraus applies the superoperator ρ → Σ_k K_k ρ K_k† for pre-lifted
// n-qubit Kraus operator DDs (see Channel.Lift). This is the exact channel
// application that replaces trajectory averaging.
func (s *State) ApplyKraus(ops []dd.MEdge) {
	sum := s.M.MZero()
	for _, k := range ops {
		term := s.M.MulMat(s.M.MulMat(k, s.Root), s.M.ConjugateTranspose(k))
		sum = s.M.AddMat(sum, term)
	}
	s.Root = sum
}

// Lift builds the n-qubit operation DDs for the channel's Kraus operators
// acting on qubit q. The returned edges are ordinary matrix DDs; callers
// holding them across cleanups must pass them as mRoots.
func (c Channel) Lift(m *dd.Manager, n, q int) []dd.MEdge {
	ops := make([]dd.MEdge, len(c.ops))
	for i, k := range c.ops {
		ops[i] = m.MakeGateDD(n, k, q)
	}
	return ops
}

// Trace returns Tr ρ. Exactly 1 for a valid state; drift signals a broken
// channel or numeric trouble.
func (s *State) Trace() float64 {
	return real(s.M.MTrace(s.Root))
}

// NormalizeTrace rescales ρ so Tr ρ = 1, absorbing accumulated float drift.
// It reports the trace found; a zero trace leaves the state untouched.
func (s *State) NormalizeTrace() float64 {
	tr := s.Trace()
	if tr == 0 || tr == 1 {
		return tr
	}
	s.Root = s.M.ScaleM(s.Root, complex(1/tr, 0))
	return tr
}

// Purity returns Tr ρ² ∈ [2⁻ⁿ, 1]: exactly 1 for pure states, smaller the
// more the channels have mixed the state.
func (s *State) Purity() float64 {
	return real(s.M.MTrace(s.M.MulMat(s.Root, s.Root)))
}

// FidelityPure returns ⟨ψ|ρ|ψ⟩, the fidelity of ρ against a pure reference
// state — the quantity the trajectory backend estimates by averaging
// |⟨ψ|traj⟩|² over Monte-Carlo runs.
func (s *State) FidelityPure(psi dd.VEdge) float64 {
	return real(s.M.InnerProduct(psi, s.M.MulVec(s.Root, psi)))
}

// Probability returns the diagonal entry ρ[idx][idx]: the probability of
// measuring basis state idx. Cost is one root-to-terminal walk.
func (s *State) Probability(idx uint64) float64 {
	w := s.Root.W.Complex()
	node := s.Root.N
	for l := s.N - 1; l >= 0; l-- {
		if w == 0 {
			return 0
		}
		if node.IsTerminal() {
			panic("density: Probability reached terminal early (qubit count mismatch)")
		}
		bit := idx >> uint(s.M.LevelQubit(l)) & 1
		child := node.E[3*bit] // quadrant (0,0) or (1,1)
		w *= child.W.Complex()
		node = child.N
	}
	return max(0, min(1, real(w)))
}

// Sample draws one basis state from the diagonal distribution of ρ without
// collapsing it. At each node the conditional bit probabilities are the
// partial diagonal sums Re(W · w_b · tr(child_b)), which are nonnegative for
// a positive semidefinite ρ. The per-subtree traces are memoized in memo
// (pass the same map across shots to amortize the walk).
func (s *State) Sample(rng *rand.Rand, memo map[*dd.MNode]complex128) uint64 {
	if s.M.IsMZero(s.Root) {
		panic("density: Sample on zero state")
	}
	if memo == nil {
		memo = make(map[*dd.MNode]complex128)
	}
	var idx uint64
	w := s.Root.W.Complex()
	node := s.Root.N
	for l := s.N - 1; l >= 0; l-- {
		if node.IsTerminal() {
			panic("density: Sample reached terminal early (qubit count mismatch)")
		}
		c0, c1 := node.E[0], node.E[3]
		p0 := math.Max(0, real(w*c0.W.Complex()*diagTrace(s.M, c0.N, memo)))
		p1 := math.Max(0, real(w*c1.W.Complex()*diagTrace(s.M, c1.N, memo)))
		r := rng.Float64() * (p0 + p1)
		var bit uint64
		if r >= p0 {
			bit = 1
		}
		idx |= bit << uint(s.M.LevelQubit(l))
		child := node.E[3*bit]
		w *= child.W.Complex()
		node = child.N
	}
	return idx
}

// SampleMany draws shots samples and returns a histogram of basis states,
// sharing one trace memo across all shots.
func (s *State) SampleMany(shots int, rng *rand.Rand) map[uint64]int {
	memo := make(map[*dd.MNode]complex128)
	hist := make(map[uint64]int)
	for i := 0; i < shots; i++ {
		hist[s.Sample(rng, memo)]++
	}
	return hist
}

// diagTrace returns the trace of the weight-stripped subtree under n
// (diagonal quadrants only), memoized in memo.
func diagTrace(m *dd.Manager, n *dd.MNode, memo map[*dd.MNode]complex128) complex128 {
	if n.IsTerminal() {
		return 1
	}
	if t, ok := memo[n]; ok {
		return t
	}
	var sum complex128
	for _, q := range [2]int{0, 3} {
		child := n.E[q]
		if m.IsMZero(child) {
			continue
		}
		sum += child.W.Complex() * diagTrace(m, child.N, memo)
	}
	memo[n] = sum
	return sum
}

// ProbabilityOne returns the probability that measuring qubit q yields 1:
// Tr(P₁ ρ) for the lifted projector P₁ = |1⟩⟨1| on q.
func (s *State) ProbabilityOne(q int) float64 {
	if q < 0 || q >= s.N {
		panic(fmt.Sprintf("density: qubit %d out of range", q))
	}
	p1 := s.M.MakeGateDD(s.N, [4]complex128{0, 0, 0, 1}, q)
	return max(0, min(1, real(s.M.MTrace(s.M.MulMat(p1, s.Root)))))
}

// MeasureQubit projectively measures qubit q, collapsing ρ → P_b ρ P_b / p_b
// and returning the observed bit. The mixed-state counterpart of
// Manager.MeasureQubit.
func (s *State) MeasureQubit(q int, rng *rand.Rand) int {
	p1 := s.ProbabilityOne(q)
	bit := 0
	if rng.Float64() < p1 {
		bit = 1
	}
	s.ProjectQubit(q, bit)
	return bit
}

// ProjectQubit projects qubit q onto bit and renormalizes. Projecting onto a
// zero-probability branch leaves the zero state.
func (s *State) ProjectQubit(q, bit int) {
	var u [4]complex128
	if bit == 0 {
		u = [4]complex128{1, 0, 0, 0}
	} else {
		u = [4]complex128{0, 0, 0, 1}
	}
	proj := s.M.MakeGateDD(s.N, u, q)
	s.Root = s.M.MulMat(s.M.MulMat(proj, s.Root), proj)
	if s.M.IsMZero(s.Root) {
		return
	}
	s.NormalizeTrace()
}
