package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dd"
)

// approxCase generates a random normalized state plus a random round
// fidelity in [0.5, 1).
type approxCase struct {
	n      int
	vec    []complex128
	fround float64
}

func (approxCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 2 + rng.Intn(6)
	vec := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range vec {
		if rng.Float64() < 0.7 {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			vec[i] = complex(re, im)
			norm += re*re + im*im
		}
	}
	if norm == 0 {
		vec[0] = 1
		norm = 1
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range vec {
		vec[i] *= inv
	}
	return reflect.ValueOf(approxCase{n: n, vec: vec, fround: 0.5 + rng.Float64()*0.499})
}

// Property (the paper's §IV-A guarantee): the achieved fidelity of a single
// approximation round never drops below the requested f_round, matches the
// exact inner product, and the result stays normalized.
func TestQuickFidelityGuarantee(t *testing.T) {
	f := func(tc approxCase) bool {
		m := dd.New()
		e, err := m.FromAmplitudes(tc.vec)
		if err != nil {
			return false
		}
		ne, rep, err := ApproximateToFidelity(m, e, tc.fround)
		if err != nil {
			return false
		}
		if rep.Achieved < tc.fround-1e-9 {
			return false
		}
		if math.Abs(m.Fidelity(e, ne)-rep.Achieved) > 1e-9 {
			return false
		}
		if !rep.NoOp() && math.Abs(m.Norm(ne)-1) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property (Definition 2): contributions on every level sum to 1.
func TestQuickLevelSums(t *testing.T) {
	f := func(tc approxCase) bool {
		m := dd.New()
		e, err := m.FromAmplitudes(tc.vec)
		if err != nil {
			return false
		}
		for _, s := range levelSums(Contributions(m, e), tc.n) {
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property (Lemma 1 for back-to-back truncations): two consecutive
// approximation rounds compose multiplicatively, exactly.
func TestQuickLemma1Composition(t *testing.T) {
	f := func(tc approxCase) bool {
		m := dd.New()
		psi, err := m.FromAmplitudes(tc.vec)
		if err != nil {
			return false
		}
		psi1, _, err := ApproximateToFidelity(m, psi, tc.fround)
		if err != nil {
			return false
		}
		psi2, _, err := ApproximateToFidelity(m, psi1, tc.fround)
		if err != nil {
			return false
		}
		lhs := m.Fidelity(psi, psi2)
		rhs := m.Fidelity(psi, psi1) * m.Fidelity(psi1, psi2)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: size-targeted approximation never increases the node count and
// reports its own result consistently.
func TestQuickSizeTargetMonotone(t *testing.T) {
	f := func(tc approxCase) bool {
		m := dd.New()
		e, err := m.FromAmplitudes(tc.vec)
		if err != nil {
			return false
		}
		before := dd.CountVNodes(e)
		target := before/2 + 1
		ne, rep, err := ApproximateToSize(m, e, target)
		if err != nil {
			return false
		}
		after := dd.CountVNodes(ne)
		return after <= before && rep.SizeAfter == after && rep.Achieved <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
