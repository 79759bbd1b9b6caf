package density

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dd"
)

// randomPure builds a random normalized n-qubit state DD plus its dense
// amplitude vector.
func randomPure(t *testing.T, m *dd.Manager, n int, rng *rand.Rand) (dd.VEdge, []complex128) {
	t.Helper()
	amps := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	norm = math.Sqrt(norm)
	for i := range amps {
		amps[i] /= complex(norm, 0)
	}
	v, err := m.FromAmplitudes(amps)
	if err != nil {
		t.Fatalf("FromAmplitudes: %v", err)
	}
	return v, amps
}

// diagonal expands the full 2^n diagonal of ρ.
func diagonal(s *State) []float64 {
	out := make([]float64, uint64(1)<<uint(s.N))
	for i := range out {
		out[i] = s.Probability(uint64(i))
	}
	return out
}

// denseApplyChannel applies a single-qubit Kraus channel to the dense density
// matrix rho on qubit q of n — the O(4^n) oracle the DD path is checked
// against.
func denseApplyChannel(rho [][]complex128, ops [][4]complex128, q, n int) [][]complex128 {
	dim := 1 << uint(n)
	out := make([][]complex128, dim)
	for i := range out {
		out[i] = make([]complex128, dim)
	}
	for _, k := range ops {
		// Lift K to n qubits: K_full[r][c] = K[rb][cb] if all other bits of
		// r and c agree, with rb/cb the q-th bits.
		mask := uint64(1) << uint(q)
		kr := make([][]complex128, dim)
		for r := 0; r < dim; r++ {
			kr[r] = make([]complex128, dim)
			for c := 0; c < dim; c++ {
				if uint64(r)&^mask != uint64(c)&^mask {
					continue
				}
				rb := uint64(r) >> uint(q) & 1
				cb := uint64(c) >> uint(q) & 1
				kr[r][c] = k[2*rb+cb]
			}
		}
		// out += K rho K†
		for r := 0; r < dim; r++ {
			for c := 0; c < dim; c++ {
				var sum complex128
				for a := 0; a < dim; a++ {
					if kr[r][a] == 0 {
						continue
					}
					for b := 0; b < dim; b++ {
						sum += kr[r][a] * rho[a][b] * cmplx.Conj(kr[c][b])
					}
				}
				out[r][c] += sum
			}
		}
	}
	return out
}

func TestChannelConstruction(t *testing.T) {
	for _, kind := range Kinds() {
		for _, p := range []float64{0, 0.01, 0.3, 1} {
			c, err := New(kind, p)
			if err != nil {
				t.Fatalf("New(%s, %v): %v", kind, p, err)
			}
			if c.Kind() != kind || c.P() != p {
				t.Errorf("New(%s, %v) recorded kind=%s p=%v", kind, p, c.Kind(), c.P())
			}
		}
		for _, p := range []float64{-0.1, 1.1, math.NaN()} {
			if _, err := New(kind, p); err == nil {
				t.Errorf("New(%s, %v) accepted invalid strength", kind, p)
			}
		}
	}
	if _, err := New("banana", 0.1); err == nil {
		t.Error("unknown kind accepted")
	}
	// The completeness check New runs must reject a non-trace-preserving set.
	if err := checkComplete([][4]complex128{{0.5, 0, 0, 0.5}}); err == nil {
		t.Error("checkComplete accepted a trace-shrinking operator set")
	}
	if err := checkComplete(nil); err == nil {
		t.Error("checkComplete accepted an empty set")
	}
	// Mixed-unitary detection: depolarizing yes, amplitude damping no.
	dep, _ := New(Depolarizing, 0.2)
	if probs, ok := dep.MixedUnitary(); !ok || len(probs) != 4 {
		t.Errorf("depolarizing MixedUnitary = %v, %v", probs, ok)
	}
	ad, _ := New(AmplitudeDamping, 0.2)
	if _, ok := ad.MixedUnitary(); ok {
		t.Error("amplitude damping reported mixed-unitary")
	}
}

func TestApplyChannelMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range Kinds() {
		for _, n := range []int{1, 2, 3} {
			m := dd.New()
			v, _ := randomPure(t, m, n, rng)
			s := FromPure(m, n, v)
			want := m.ToMatrix(s.Root, n)
			ch, err := New(kind, 0.17)
			if err != nil {
				t.Fatal(err)
			}
			q := rng.Intn(n)
			s.ApplyKraus(ch.Lift(m, n, q))
			want = denseApplyChannel(want, ch.ops, q, n)
			got := m.ToMatrix(s.Root, n)
			for r := range want {
				for c := range want[r] {
					if cmplx.Abs(got[r][c]-want[r][c]) > 1e-9 {
						t.Fatalf("%s n=%d q=%d: ρ[%d][%d] = %v, dense oracle %v",
							kind, n, q, r, c, got[r][c], want[r][c])
					}
				}
			}
			if tr := s.Trace(); math.Abs(tr-1) > 1e-9 {
				t.Fatalf("%s n=%d: trace drifted to %v", kind, n, tr)
			}
		}
	}
}

func TestApplyUnitaryMatchesPureEvolution(t *testing.T) {
	m := dd.New()
	rng := rand.New(rand.NewSource(7))
	n := 3
	v, _ := randomPure(t, m, n, rng)
	s := FromPure(m, n, v)
	h := complex(1/math.Sqrt2, 0)
	u := m.MakeGateDD(n, [4]complex128{h, h, h, -h}, 1, dd.PosControl(0))
	s.ApplyUnitary(u)
	evolved := m.NormalizeRootWeight(m.MulVec(u, v))
	want := m.ToMatrix(m.OuterProduct(evolved, evolved), n)
	got := m.ToMatrix(s.Root, n)
	for r := range want {
		for c := range want[r] {
			if cmplx.Abs(got[r][c]-want[r][c]) > 1e-9 {
				t.Fatalf("UρU† [%d][%d] = %v, |Uv⟩⟨Uv| = %v", r, c, got[r][c], want[r][c])
			}
		}
	}
	if p := s.Purity(); math.Abs(p-1) > 1e-9 {
		t.Errorf("purity of pure state after unitary = %v", p)
	}
	if f := s.FidelityPure(evolved); math.Abs(f-1) > 1e-9 {
		t.Errorf("fidelity against own pure state = %v", f)
	}
}

func TestAmplitudeDampingLimits(t *testing.T) {
	m := dd.New()
	// γ = 1 maps |1⟩⟨1| to |0⟩⟨0| exactly.
	s := NewBasis(m, 2, 0b11)
	ch, _ := New(AmplitudeDamping, 1)
	s.ApplyKraus(ch.Lift(m, 2, 0))
	s.ApplyKraus(ch.Lift(m, 2, 1))
	if p := s.Probability(0); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(|00⟩) after full damping = %v, want 1", p)
	}
	if p := s.Probability(0b11); p > 1e-12 {
		t.Errorf("P(|11⟩) after full damping = %v, want 0", p)
	}
	// Partial damping of |1⟩⟨1|: P(1) = 1 − γ.
	s2 := NewBasis(m, 1, 1)
	ch2, _ := New(AmplitudeDamping, 0.3)
	s2.ApplyKraus(ch2.Lift(m, 1, 0))
	if p := s2.Probability(1); math.Abs(p-0.7) > 1e-12 {
		t.Errorf("P(|1⟩) after γ=0.3 damping = %v, want 0.7", p)
	}
	if tr := s2.Trace(); math.Abs(tr-1) > 1e-12 {
		t.Errorf("trace after damping = %v", tr)
	}
}

func TestDepolarizingMixesTowardIdentity(t *testing.T) {
	m := dd.New()
	n := 2
	s := NewBasis(m, n, 0)
	ch, _ := New(Depolarizing, 0.5)
	before := s.Purity()
	for q := 0; q < n; q++ {
		s.ApplyKraus(ch.Lift(m, n, q))
	}
	after := s.Purity()
	if after >= before {
		t.Errorf("purity did not decrease: %v → %v", before, after)
	}
	if tr := s.Trace(); math.Abs(tr-1) > 1e-12 {
		t.Errorf("trace after depolarizing = %v", tr)
	}
	// p = 3/4 depolarizing is the fully depolarizing channel on one qubit:
	// the marginal becomes I/2, so both outcomes of that qubit are equally
	// likely.
	s2 := NewBasis(m, 1, 0)
	full, _ := New(Depolarizing, 0.75)
	s2.ApplyKraus(full.Lift(m, 1, 0))
	if p := s2.Probability(0); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("fully depolarized P(0) = %v, want 0.5", p)
	}
	if pur := s2.Purity(); math.Abs(pur-0.5) > 1e-12 {
		t.Errorf("fully depolarized purity = %v, want 0.5", pur)
	}
}

func TestSampleMatchesDiagonal(t *testing.T) {
	m := dd.New()
	rng := rand.New(rand.NewSource(123))
	n := 3
	v, _ := randomPure(t, m, n, rng)
	s := FromPure(m, n, v)
	ch, _ := New(Depolarizing, 0.2)
	s.ApplyKraus(ch.Lift(m, n, 1))
	probs := diagonal(s)
	var total float64
	for _, p := range probs {
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("diagonal sums to %v", total)
	}
	const shots = 200000
	hist := s.SampleMany(shots, rng)
	for idx, p := range probs {
		got := float64(hist[uint64(idx)]) / shots
		if math.Abs(got-p) > 0.01 {
			t.Errorf("P(%03b): sampled %v, diagonal %v", idx, got, p)
		}
	}
}

func TestMeasureQubitCollapses(t *testing.T) {
	m := dd.New()
	rng := rand.New(rand.NewSource(9))
	// Bell-like mixture: H on qubit 0 of |00⟩, then CX — measuring either
	// qubit forces the other.
	v := m.BasisState(2, 0)
	h := complex(1/math.Sqrt2, 0)
	v = m.NormalizeRootWeight(m.MulVec(m.MakeGateDD(2, [4]complex128{h, h, h, -h}, 0), v))
	v = m.NormalizeRootWeight(m.MulVec(m.MakeGateDD(2, [4]complex128{0, 1, 1, 0}, 1, dd.PosControl(0)), v))
	s := FromPure(m, 2, v)
	if p := s.ProbabilityOne(0); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("P(q0=1) = %v, want 0.5", p)
	}
	bit := s.MeasureQubit(0, rng)
	if tr := s.Trace(); math.Abs(tr-1) > 1e-9 {
		t.Fatalf("trace after measurement = %v", tr)
	}
	if p := s.ProbabilityOne(1); math.Abs(p-float64(bit)) > 1e-9 {
		t.Errorf("after measuring q0=%d, P(q1=1) = %v", bit, p)
	}
	// Projecting onto an impossible branch yields the zero state.
	s2 := NewBasis(m, 1, 0)
	s2.ProjectQubit(0, 1)
	if !m.IsMZero(s2.Root) {
		t.Error("projection onto zero-probability branch is not the zero edge")
	}
}

func TestNormalizeTrace(t *testing.T) {
	m := dd.New()
	s := NewBasis(m, 2, 1)
	s.Root = m.ScaleM(s.Root, complex(2, 0))
	if tr := s.NormalizeTrace(); math.Abs(tr-2) > 1e-12 {
		t.Errorf("NormalizeTrace reported %v, want 2", tr)
	}
	if tr := s.Trace(); math.Abs(tr-1) > 1e-12 {
		t.Errorf("trace after normalize = %v", tr)
	}
	if m.CountM(s.Root) == 0 {
		t.Error("CountM = 0 for nonzero state")
	}
}
