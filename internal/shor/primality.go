package shor

import (
	"math"
	"math/big"
)

// IsProbablePrime reports whether n is prime: math/big's Baillie–PSW test
// is exact for 64-bit inputs. Shor's classical preprocessing rejects primes
// before running the quantum part.
func IsProbablePrime(n uint64) bool {
	return new(big.Int).SetUint64(n).ProbablyPrime(0)
}

// PerfectPower returns (b, k, true) if n = b^k for some k ≥ 2. Shor's
// preprocessing handles prime powers classically (order finding cannot
// split p^k for prime p via the gcd trick in all cases, and p is found
// faster by root extraction).
func PerfectPower(n uint64) (uint64, int, bool) {
	if n < 4 {
		return 0, 0, false
	}
	maxK := int(math.Log2(float64(n))) + 1
	for k := 2; k <= maxK; k++ {
		b := integerKthRoot(n, k)
		if b >= 2 && powSaturating(b, k) == n {
			return b, k, true
		}
	}
	return 0, 0, false
}

// integerKthRoot returns ⌊n^(1/k)⌋.
func integerKthRoot(n uint64, k int) uint64 {
	if n == 0 {
		return 0
	}
	// Float seed, then adjust.
	b := uint64(math.Pow(float64(n), 1/float64(k)))
	for b > 1 && powSaturating(b, k) > n {
		b--
	}
	for powSaturating(b+1, k) <= n {
		b++
	}
	return b
}

// powSaturating computes b^k, saturating at MaxUint64 on overflow.
func powSaturating(b uint64, k int) uint64 {
	result := uint64(1)
	for i := 0; i < k; i++ {
		if b != 0 && result > math.MaxUint64/b {
			return math.MaxUint64
		}
		result *= b
	}
	return result
}

// ClassifyInput categorizes n for Shor preprocessing.
type InputClass int

// Input classes returned by Classify.
const (
	ClassTooSmall   InputClass = iota // n < 4: nothing to factor
	ClassEven                         // factor 2 classically
	ClassPrime                        // no non-trivial factors
	ClassPrimePower                   // b^k: factor by root extraction
	ClassComposite                    // needs order finding
)

// Classify runs the classical preprocessing of Shor's algorithm.
func Classify(n uint64) (InputClass, uint64, uint64) {
	switch {
	case n < 4:
		return ClassTooSmall, 0, 0
	case n%2 == 0:
		return ClassEven, 2, n / 2
	case IsProbablePrime(n):
		return ClassPrime, 0, 0
	default:
		if b, k, ok := PerfectPower(n); ok {
			return ClassPrimePower, b, powSaturating(b, k-1)
		}
		return ClassComposite, 0, 0
	}
}
