package shor

import (
	"testing"
	"testing/quick"
)

func TestIsProbablePrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 5: true, 7: true, 11: true, 13: true, 17: true,
		19: true, 23: true, 97: true, 101: true, 1009: true, 10007: true,
		104729: true, 2147483647: true, // Mersenne prime 2^31-1
	}
	composites := []uint64{0, 1, 4, 6, 9, 15, 21, 33, 55, 91, 221, 323, 561,
		1105, 1729, 2465, 6601, 8911, // Carmichael numbers
		1157, 341, 645, 2147483649}
	for p := range primes {
		if !IsProbablePrime(p) {
			t.Errorf("%d reported composite", p)
		}
	}
	for _, c := range composites {
		if IsProbablePrime(c) {
			t.Errorf("%d reported prime", c)
		}
	}
}

func TestIsProbablePrimeVsTrialDivision(t *testing.T) {
	for n := uint64(2); n < 5000; n++ {
		want := true
		for d := uint64(2); d*d <= n; d++ {
			if n%d == 0 {
				want = false
				break
			}
		}
		if got := IsProbablePrime(n); got != want {
			t.Fatalf("IsProbablePrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestPerfectPower(t *testing.T) {
	cases := []struct {
		n  uint64
		b  uint64
		k  int
		ok bool
	}{
		{4, 2, 2, true}, {8, 2, 3, true}, {9, 3, 2, true}, {27, 3, 3, true},
		{32, 2, 5, true}, {121, 11, 2, true}, {3125, 5, 5, true},
		{1 << 40, 2, 2, true}, // many representations; smallest k=2 found first: 2^40 = (2^20)²
		{6, 0, 0, false}, {15, 0, 0, false}, {100, 10, 2, true},
		{3, 0, 0, false}, {2, 0, 0, false},
	}
	for _, tc := range cases {
		b, k, ok := PerfectPower(tc.n)
		if ok != tc.ok {
			t.Errorf("PerfectPower(%d) ok=%v, want %v", tc.n, ok, tc.ok)
			continue
		}
		if ok && powSaturating(b, k) != tc.n {
			t.Errorf("PerfectPower(%d) = %d^%d = %d", tc.n, b, k, powSaturating(b, k))
		}
	}
}

func TestPerfectPowerQuick(t *testing.T) {
	// Property: b^k for random b,k is always detected.
	f := func(b8 uint8, k8 uint8) bool {
		b := uint64(b8%60) + 2
		k := int(k8%4) + 2
		n := powSaturating(b, k)
		if n > 1<<40 {
			return true
		}
		_, _, ok := PerfectPower(n)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		n     uint64
		class InputClass
	}{
		{2, ClassTooSmall}, {3, ClassTooSmall},
		{10, ClassEven}, {4, ClassEven},
		{17, ClassPrime}, {10007, ClassPrime},
		{9, ClassPrimePower}, {27, ClassPrimePower}, {3125, ClassPrimePower},
		{15, ClassComposite}, {1157, ClassComposite}, {221, ClassComposite},
	}
	for _, tc := range cases {
		class, f1, f2 := Classify(tc.n)
		if class != tc.class {
			t.Errorf("Classify(%d) = %v, want %v", tc.n, class, tc.class)
			continue
		}
		if class == ClassEven || class == ClassPrimePower {
			if f1*f2 != tc.n && f1*f2 != 0 {
				// For prime powers we return (b, n/b), product must be n.
				t.Errorf("Classify(%d) factors %d × %d", tc.n, f1, f2)
			}
		}
	}
}
