package gen

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/sim"
)

func TestQFTMatchesDFT(t *testing.T) {
	for n := 1; n <= 5; n++ {
		Q := 1 << uint(n)
		for x := 0; x < Q; x++ {
			s := sim.New()
			res, err := s.Run(QFT(n), sim.Options{InitialState: uint64(x)})
			if err != nil {
				t.Fatal(err)
			}
			got := s.M.ToVector(res.Final, n)
			// Global phase of the DD root may differ; fix it via y=0, whose
			// DFT amplitude is always 1/√Q.
			want0 := complex(1/math.Sqrt(float64(Q)), 0)
			phase := want0 / got[0]
			phase /= complex(cmplx.Abs(phase), 0)
			for y := 0; y < Q; y++ {
				angle := 2 * math.Pi * float64(x) * float64(y) / float64(Q)
				want := cmplx.Exp(complex(0, angle)) / complex(math.Sqrt(float64(Q)), 0)
				if cmplx.Abs(got[y]*phase-want) > 1e-9 {
					t.Fatalf("n=%d x=%d: QFT amplitude[%d] = %v, want %v",
						n, x, y, got[y]*phase, want)
				}
			}
		}
	}
}

func TestInverseQFTInvertsQFT(t *testing.T) {
	n := 4
	c := QFT(n)
	for _, g := range InverseQFT(n).Gates() {
		c.Append(&g)
	}
	for x := uint64(0); x < 1<<uint(n); x += 3 {
		s := sim.New()
		res, err := s.Run(c, sim.Options{InitialState: x})
		if err != nil {
			t.Fatal(err)
		}
		if p := s.M.Probability(res.Final, x, n); math.Abs(p-1) > 1e-9 {
			t.Fatalf("IQFT∘QFT|%d⟩: P = %v", x, p)
		}
	}
}

func TestGHZState(t *testing.T) {
	n := 6
	s := sim.New()
	res, err := s.Run(GHZ(n), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := uint64(1<<uint(n)) - 1
	p0 := s.M.Probability(res.Final, 0, n)
	p1 := s.M.Probability(res.Final, all, n)
	if math.Abs(p0-0.5) > 1e-9 || math.Abs(p1-0.5) > 1e-9 {
		t.Errorf("GHZ probabilities %v, %v", p0, p1)
	}
	if res.MaxDDSize > 2*n {
		t.Errorf("GHZ DD grew to %d nodes", res.MaxDDSize)
	}
}

func TestWState(t *testing.T) {
	n := 5
	s := sim.New()
	res, err := s.Run(WState(n), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / float64(n)
	var total float64
	for q := 0; q < n; q++ {
		p := s.M.Probability(res.Final, 1<<uint(q), n)
		total += p
		if math.Abs(p-want) > 1e-9 {
			t.Errorf("W state P(|e_%d⟩) = %v, want %v", q, p, want)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("W state mass off single-excitation subspace: %v", 1-total)
	}
}

func TestBernsteinVazirani(t *testing.T) {
	n := 7
	secret := uint64(0b1011001)
	s := sim.New()
	res, err := s.Run(BernsteinVazirani(n, secret), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Data qubits must read the secret with probability 1 (oracle qubit in
	// |-⟩ is traced out by considering both of its values).
	p := s.M.Probability(res.Final, secret, n+1) +
		s.M.Probability(res.Final, secret|1<<uint(n), n+1)
	if math.Abs(p-1) > 1e-9 {
		t.Errorf("BV recovered secret with probability %v", p)
	}
}

func TestGroverAmplifiesMarked(t *testing.T) {
	n := 6
	marked := uint64(0b101101 & ((1 << uint(n)) - 1))
	s := sim.New()
	res, err := s.Run(Grover(n, marked, 0), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := s.M.Probability(res.Final, marked, n)
	if p < 0.9 {
		t.Errorf("Grover P(marked) = %v, want > 0.9", p)
	}
	if len(res.SizeHistory) != 0 && res.SizeHistory[len(res.SizeHistory)-1] == 0 {
		t.Error("bogus size history")
	}
}

func TestGroverBlocks(t *testing.T) {
	c := Grover(4, 3, 2)
	if len(c.Blocks()) != 3 { // init + 2 iterations
		t.Errorf("Grover blocks = %v", c.Blocks())
	}
}

func TestRandomCliffordTDeterministic(t *testing.T) {
	a := RandomCliffordT(5, 50, 42)
	b := RandomCliffordT(5, 50, 42)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Gates() {
		if a.Gates()[i].String() != b.Gates()[i].String() {
			t.Fatalf("gate %d differs between same-seed circuits", i)
		}
	}
	c := RandomCliffordT(5, 50, 43)
	same := true
	for i := range a.Gates() {
		if a.Gates()[i].String() != c.Gates()[i].String() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical circuits")
	}
}
