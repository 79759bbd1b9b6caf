package shor

import "math/bits"

// Gcd returns the greatest common divisor of a and b.
func Gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ModMul returns (a*b) mod m for any m; it panics when m is zero.
func ModMul(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, m)
}

// ModPow returns a^e mod m.
func ModPow(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	res := uint64(1)
	base := a % m
	for e > 0 {
		if e&1 == 1 {
			res = ModMul(res, base, m)
		}
		base = ModMul(base, base, m)
		e >>= 1
	}
	return res
}

// Convergent is one continued-fraction convergent p/q of a rational number.
type Convergent struct {
	P, Q uint64
}

// ContinuedFraction expands num/den into its sequence of convergents.
func ContinuedFraction(num, den uint64) []Convergent {
	if den == 0 {
		panic("shor: zero denominator")
	}
	var out []Convergent
	// p[-1]=1, p[-2]=0; q[-1]=0, q[-2]=1
	pPrev, p := uint64(1), uint64(0)
	qPrev, q := uint64(0), uint64(1)
	a, b := num, den
	for b != 0 {
		coeff := a / b
		a, b = b, a%b
		pPrev, p = coeff*pPrev+p, pPrev
		qPrev, q = coeff*qPrev+q, qPrev
		out = append(out, Convergent{P: pPrev, Q: qPrev})
	}
	return out
}

// OrderFromPhase recovers the multiplicative order r of a mod n from a
// measured counting-register value y out of Q = 2^t possibilities:
// y/Q ≈ s/r for an unknown s. It tries every continued-fraction convergent
// denominator q ≤ n (and small multiples, which handle gcd(s, r) > 1) and
// returns the first verified order.
func OrderFromPhase(y, q2t, a, n uint64) (uint64, bool) {
	if y == 0 {
		return 0, false // s = 0 carries no information
	}
	for _, c := range ContinuedFraction(y, q2t) {
		if c.Q == 0 || c.Q > n {
			continue
		}
		for mult := uint64(1); mult*c.Q <= n; mult++ {
			r := mult * c.Q
			if r > 0 && ModPow(a, r, n) == 1 {
				return r, true
			}
		}
	}
	return 0, false
}

// FactorsFromOrder derives non-trivial factors of n from the order r of a:
// if r is even and a^(r/2) ≢ −1 (mod n), then gcd(a^(r/2)±1, n) splits n.
func FactorsFromOrder(a, r, n uint64) (uint64, uint64, bool) {
	if r == 0 || r%2 != 0 {
		return 0, 0, false
	}
	h := ModPow(a, r/2, n)
	if h == n-1 { // a^(r/2) ≡ −1: the classic failure case
		return 0, 0, false
	}
	f1 := Gcd(h+1, n)
	f2 := Gcd(h+n-1, n)
	for _, f := range []uint64{f1, f2} {
		if f != 1 && f != n && n%f == 0 {
			return f, n / f, true
		}
	}
	return 0, 0, false
}

// BitLen returns the number of bits needed to represent n.
func BitLen(n uint64) int {
	bits := 0
	for n > 0 {
		bits++
		n >>= 1
	}
	return bits
}
