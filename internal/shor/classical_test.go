package shor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// multiplicativeOrder returns the order of a modulo n (the smallest r > 0
// with a^r ≡ 1), computed classically by iteration: the oracle the sampled
// orders are graded against.
func multiplicativeOrder(a, n uint64) (uint64, error) {
	if Gcd(a, n) != 1 {
		return 0, fmt.Errorf("shor: %d and %d are not coprime", a, n)
	}
	x := a % n
	for r := uint64(1); r <= n; r++ {
		if x == 1 {
			return r, nil
		}
		x = ModMul(x, a, n)
	}
	return 0, fmt.Errorf("shor: order of %d mod %d not found", a, n)
}

func TestGcd(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{12, 18, 6}, {7, 13, 1}, {0, 5, 5}, {5, 0, 5}, {48, 36, 12}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := Gcd(c.a, c.b); got != c.want {
			t.Errorf("Gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestModPow(t *testing.T) {
	cases := []struct{ a, e, m, want uint64 }{
		{2, 10, 1000, 24},
		{7, 0, 15, 1},
		{7, 4, 15, 1}, // order of 7 mod 15 is 4
		{5, 3, 33, 26},
		{3, 100, 7, ModPow(3, 100%6, 7)}, // Fermat: ord divides 6
	}
	for _, c := range cases {
		if got := ModPow(c.a, c.e, c.m); got != c.want {
			t.Errorf("ModPow(%d,%d,%d) = %d, want %d", c.a, c.e, c.m, got, c.want)
		}
	}
}

func TestModMulMatchesBigModulus(t *testing.T) {
	// Exercise the double-and-add path with a modulus above 2^32.
	m := uint64(1) << 40
	a := uint64(1)<<39 + 12345
	b := uint64(1)<<39 + 67890
	want := ModMul(a%97, b%97, 97) // sanity on small path first
	if want != (a%97)*(b%97)%97 {
		t.Fatal("small path broken")
	}
	got := ModMul(a, b, m)
	// Verify against iterated addition on a smaller but >2^32 modulus using
	// the identity (a*b) mod m computed via math/big-free double-and-add:
	var ref uint64
	x, y := a%m, b%m
	for y > 0 {
		if y&1 == 1 {
			ref = (ref + x) % m
		}
		x = (x + x) % m
		y >>= 1
	}
	if got != ref {
		t.Errorf("ModMul big path: %d, want %d", got, ref)
	}
}

func TestMultiplicativeOrder(t *testing.T) {
	cases := []struct{ a, n, want uint64 }{
		{7, 15, 4}, {2, 15, 4}, {5, 33, 10}, {2, 21, 6}, {2, 55, 20}, {8, 1157, 0},
	}
	for _, c := range cases {
		got, err := multiplicativeOrder(c.a, c.n)
		if err != nil {
			t.Fatalf("order(%d,%d): %v", c.a, c.n, err)
		}
		if c.want != 0 && got != c.want {
			t.Errorf("order(%d,%d) = %d, want %d", c.a, c.n, got, c.want)
		}
		if ModPow(c.a, got, c.n) != 1 {
			t.Errorf("a^r mod n != 1 for order %d", got)
		}
	}
	if _, err := multiplicativeOrder(6, 15); err == nil {
		t.Error("non-coprime pair accepted")
	}
}

func TestContinuedFractionOfGoldenish(t *testing.T) {
	// 355/113 ≈ π has convergents 3/1, 22/7, 355/113.
	conv := ContinuedFraction(355, 113)
	found22_7 := false
	for _, c := range conv {
		if c.P == 22 && c.Q == 7 {
			found22_7 = true
		}
	}
	if !found22_7 {
		t.Errorf("convergents of 355/113 = %v missing 22/7", conv)
	}
	last := conv[len(conv)-1]
	if last.P != 355 || last.Q != 113 {
		t.Errorf("final convergent %v, want 355/113", last)
	}
}

func TestContinuedFractionRecoversExactRatio(t *testing.T) {
	// Property: last convergent of p/q equals p/q in lowest terms.
	f := func(p, q uint16) bool {
		if q == 0 {
			return true
		}
		conv := ContinuedFraction(uint64(p), uint64(q))
		if len(conv) == 0 {
			return false
		}
		last := conv[len(conv)-1]
		g := Gcd(uint64(p), uint64(q))
		if g == 0 {
			return true
		}
		return last.P == uint64(p)/g && last.Q == uint64(q)/g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestOrderFromPhaseIdealMeasurements(t *testing.T) {
	// For y = s·Q/r (exact phase peaks), the order must be recovered for
	// some s; aggregate over all s as the sampler would.
	cases := []struct{ a, n uint64 }{
		{7, 15}, {2, 21}, {5, 33}, {2, 55}, {4, 221 % 63}, // last: small sanity
	}
	for _, c := range cases {
		if Gcd(c.a, c.n) != 1 {
			continue
		}
		r, err := multiplicativeOrder(c.a, c.n)
		if err != nil {
			t.Fatal(err)
		}
		bits := BitLen(c.n)
		Q := uint64(1) << uint(2*bits)
		recovered := false
		for s := uint64(1); s < r; s++ {
			y := s * Q / r // floor; close enough for CF recovery
			if got, ok := OrderFromPhase(y, Q, c.a, c.n); ok && got == r {
				recovered = true
			}
		}
		if !recovered && r > 1 {
			t.Errorf("order %d of %d mod %d never recovered from ideal phases", r, c.a, c.n)
		}
	}
}

func TestOrderFromPhaseZeroUninformative(t *testing.T) {
	if _, ok := OrderFromPhase(0, 256, 7, 15); ok {
		t.Error("y=0 produced an order")
	}
}

func TestFactorsFromOrder(t *testing.T) {
	// 7 mod 15 has order 4: 7² = 49 ≡ 4; gcd(5,15)=5, gcd(3,15)=3.
	f1, f2, ok := FactorsFromOrder(7, 4, 15)
	if !ok || f1*f2 != 15 || f1 == 1 || f2 == 1 {
		t.Errorf("FactorsFromOrder(7,4,15) = %d,%d,%v", f1, f2, ok)
	}
	// Odd order fails.
	if _, _, ok := FactorsFromOrder(4, 3, 15); ok {
		t.Error("odd order accepted")
	}
	// a^(r/2) ≡ −1 case: a=14, N=15: 14² = 196 ≡ 1, order 2, 14 ≡ −1.
	if _, _, ok := FactorsFromOrder(14, 2, 15); ok {
		t.Error("a^(r/2) ≡ −1 case produced factors")
	}
}

func TestFactorsFromOrderRandomized(t *testing.T) {
	// Property over random semiprimes: whenever FactorsFromOrder succeeds,
	// the factors are correct; and for a fair share of bases it succeeds.
	semiprimes := []uint64{15, 21, 33, 35, 55, 77, 91, 143, 221, 323}
	rng := rand.New(rand.NewSource(90))
	for _, n := range semiprimes {
		wins := 0
		tries := 0
		for i := 0; i < 30; i++ {
			a := 2 + rng.Uint64()%(n-3)
			if Gcd(a, n) != 1 {
				continue
			}
			tries++
			r, err := multiplicativeOrder(a, n)
			if err != nil {
				t.Fatal(err)
			}
			if f1, f2, ok := FactorsFromOrder(a, r, n); ok {
				if f1*f2 != n {
					t.Fatalf("wrong factors %d×%d for %d", f1, f2, n)
				}
				wins++
			}
		}
		if tries > 4 && wins == 0 {
			t.Errorf("no base factored %d out of %d coprime tries (expected ≥ ~half)", n, tries)
		}
	}
}

func TestBitLen(t *testing.T) {
	cases := map[uint64]int{1: 1, 2: 2, 3: 2, 15: 4, 16: 5, 33: 6, 1157: 11}
	for n, want := range cases {
		if got := BitLen(n); got != want {
			t.Errorf("BitLen(%d) = %d, want %d", n, got, want)
		}
	}
}
