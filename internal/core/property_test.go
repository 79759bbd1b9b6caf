package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/dd"
)

// approxOp is one approximation primitive under the shared invariant suite.
// floor is the fidelity the op guarantees for the given case (0 = none).
type approxOp struct {
	name  string
	run   func(m *dd.Manager, e dd.VEdge, tc approxCase, target int) (dd.VEdge, Report, error)
	floor func(tc approxCase) float64
	sized bool // op targets a node budget
}

func approxOps() []approxOp {
	none := func(approxCase) float64 { return 0 }
	return []approxOp{
		{
			name: "fidelity-delete",
			run: func(m *dd.Manager, e dd.VEdge, tc approxCase, _ int) (dd.VEdge, Report, error) {
				return ApproximateToFidelity(m, e, tc.fround)
			},
			floor: func(tc approxCase) float64 { return tc.fround },
		},
		{
			name: "size-delete",
			run: func(m *dd.Manager, e dd.VEdge, _ approxCase, target int) (dd.VEdge, Report, error) {
				return ApproximateToSize(m, e, target)
			},
			floor: none,
			sized: true,
		},
		{
			name: "size-replace",
			run: func(m *dd.Manager, e dd.VEdge, _ approxCase, target int) (dd.VEdge, Report, error) {
				return ApproximateToSizeReplace(m, e, target, 0, nil)
			},
			floor: none,
			sized: true,
		},
		{
			name: "size-replace-floored",
			run: func(m *dd.Manager, e dd.VEdge, tc approxCase, target int) (dd.VEdge, Report, error) {
				return ApproximateToSizeReplace(m, e, target, tc.fround, nil)
			},
			floor: func(tc approxCase) float64 { return tc.fround },
			sized: true,
		},
		{
			name: "size-replace-collapse",
			run: func(m *dd.Manager, e dd.VEdge, _ approxCase, target int) (dd.VEdge, Report, error) {
				return ApproximateToSizeReplace(m, e, target, 0, []SubstituteKind{SubstituteCollapse})
			},
			floor: none,
			sized: true,
		},
		{
			name: "size-replace-promote",
			run: func(m *dd.Manager, e dd.VEdge, _ approxCase, target int) (dd.VEdge, Report, error) {
				return ApproximateToSizeReplace(m, e, target, 0, []SubstituteKind{SubstitutePromote})
			},
			floor: none,
			sized: true,
		},
	}
}

// validateVDD walks the result and checks it is a structurally valid,
// canonically normalized vector DD over n qubits: nonzero child edges step
// down exactly one level (reaching the terminal only below level 0), every
// node's child weights satisfy |w0|²+|w1|² = 1, and the first nonzero child
// weight is real positive (the canonical phase choice of MakeVNode).
func validateVDD(m *dd.Manager, e dd.VEdge, n int) error {
	if m.IsVZero(e) {
		return fmt.Errorf("state is the zero vector")
	}
	if e.N == nil || e.N.IsTerminal() || int(e.N.Var) != n-1 {
		return fmt.Errorf("root not at level %d", n-1)
	}
	seen := make(map[*dd.VNode]bool)
	var walk func(node *dd.VNode) error
	walk = func(node *dd.VNode) error {
		if node.IsTerminal() || seen[node] {
			return nil
		}
		seen[node] = true
		sum := node.E[0].W.Abs2() + node.E[1].W.Abs2()
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("node at level %d: |w0|²+|w1|² = %v", node.Var, sum)
		}
		first := true
		for i := 0; i < 2; i++ {
			child := node.E[i]
			if child.W.Abs2() == 0 {
				continue
			}
			if first {
				w := child.W.Complex()
				if math.Abs(imag(w)) > 1e-9 || real(w) <= 0 {
					return fmt.Errorf("node at level %d: first nonzero child weight %v not canonical", node.Var, w)
				}
				first = false
			}
			if node.Var == 0 {
				if child.N == nil || !child.N.IsTerminal() {
					return fmt.Errorf("level-0 child is not terminal")
				}
				continue
			}
			if child.N == nil || child.N.IsTerminal() || child.N.Var != node.Var-1 {
				return fmt.Errorf("node at level %d: nonzero child not at level %d", node.Var, node.Var-1)
			}
			if err := walk(child.N); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(e.N)
}

// bruteForceFidelity computes |⟨a|b⟩|² straight from the expanded state
// vectors, independent of the DD inner-product code under test.
func bruteForceFidelity(m *dd.Manager, a, b dd.VEdge, n int) float64 {
	va, vb := m.ToVector(a, n), m.ToVector(b, n)
	var ip complex128
	for i := range va {
		ip += cmplx.Conj(va[i]) * vb[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// checkInvariants enforces the invariant set shared by every approximation
// primitive: valid normalized DD, unit norm, exact Report accounting against
// a brute-force ToVector inner product, never-severed state, and any
// fidelity floor the op guarantees.
func checkInvariants(m *dd.Manager, before, after dd.VEdge, rep Report, n int, floor float64) error {
	if err := validateVDD(m, after, n); err != nil {
		return fmt.Errorf("invalid DD: %w", err)
	}
	if norm := m.Norm(after); math.Abs(norm-1) > 1e-9 {
		return fmt.Errorf("norm %v after approximation", norm)
	}
	bf := bruteForceFidelity(m, before, after, n)
	if math.Abs(bf-rep.Achieved) > 1e-9 {
		return fmt.Errorf("reported fidelity %v, brute force %v", rep.Achieved, bf)
	}
	if rep.Achieved < floor-1e-9 {
		return fmt.Errorf("achieved fidelity %v below floor %v", rep.Achieved, floor)
	}
	if got := dd.CountVNodes(after); got != rep.SizeAfter {
		return fmt.Errorf("reported SizeAfter %d, counted %d", rep.SizeAfter, got)
	}
	if got := dd.CountVNodes(before); got != rep.SizeBefore {
		return fmt.Errorf("reported SizeBefore %d, counted %d", rep.SizeBefore, got)
	}
	return nil
}

// Property: every approximation primitive preserves the invariant set on
// random states (the headline correctness evidence for the strategy layer).
func TestQuickApproxInvariants(t *testing.T) {
	for _, op := range approxOps() {
		op := op
		t.Run(op.name, func(t *testing.T) {
			f := func(tc approxCase) bool {
				m := dd.New()
				e, err := m.FromAmplitudes(tc.vec)
				if err != nil {
					t.Logf("FromAmplitudes: %v", err)
					return false
				}
				before := dd.CountVNodes(e)
				target := before/2 + 1
				ne, rep, err := op.run(m, e, tc, target)
				if err != nil {
					t.Logf("%s: %v", op.name, err)
					return false
				}
				if err := checkInvariants(m, e, ne, rep, tc.n, op.floor(tc)); err != nil {
					t.Logf("%s: %v", op.name, err)
					return false
				}
				if op.sized && dd.CountVNodes(ne) > before {
					t.Logf("%s: node count grew %d → %d", op.name, before, dd.CountVNodes(ne))
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: at an equal node budget, the replace pass never ends larger than
// the delete pass — whenever delete can meet the budget, replace meets it
// too (the delete fallback guarantees it), so frontier comparisons at a
// fixed budget are fair.
func TestQuickReplaceMeetsBudget(t *testing.T) {
	f := func(tc approxCase) bool {
		m := dd.New()
		e, err := m.FromAmplitudes(tc.vec)
		if err != nil {
			return false
		}
		before := dd.CountVNodes(e)
		target := before/2 + 1
		nd, _, err := ApproximateToSize(m, e, target)
		if err != nil {
			return false
		}
		nr, _, err := ApproximateToSizeReplace(m, e, target, 0, nil)
		if err != nil {
			return false
		}
		afterDelete, afterReplace := dd.CountVNodes(nd), dd.CountVNodes(nr)
		if afterDelete <= target && afterReplace > target {
			t.Logf("delete met budget %d (%d) but replace did not (%d)", target, afterDelete, afterReplace)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: replacement keeps at least one root-to-terminal path through
// every replaced node alive — replacing every non-root node still yields a
// valid nonzero state.
func TestQuickReplaceNeverSevers(t *testing.T) {
	for _, kind := range DefaultSubstitutes() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			f := func(tc approxCase) bool {
				m := dd.New()
				e, err := m.FromAmplitudes(tc.vec)
				if err != nil {
					return false
				}
				repl := make(map[*dd.VNode]SubstituteKind)
				for _, node := range dd.CollectVNodes(e) {
					if node != e.N {
						repl[node] = kind
					}
				}
				ne := rebuildWith(m, e, repl)
				if m.IsVZero(ne) {
					t.Log("replacement zeroed the state")
					return false
				}
				return validateVDD(m, ne, tc.n) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Error(err)
			}
		})
	}
}
