package density

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
)

// FuzzKrausChannel drives channel construction and application over fuzzed
// parameters: any (kind, strength) pair must either be rejected at
// construction or produce a trace-preserving superoperator that leaves ρ a
// well-formed DD — trace pinned to 1, purity in (0, 1], diagonal a
// probability distribution, and no severed (zero) root. The strength arrives
// as raw float64 bits so the mutation engine reaches NaN, infinities, and
// subnormals, not just in-range values.
func FuzzKrausChannel(f *testing.F) {
	kinds := Kinds()
	f.Add(uint8(0), math.Float64bits(0.1), int64(1), uint8(0)) // depolarizing mid-strength
	f.Add(uint8(1), math.Float64bits(1), int64(2), uint8(2))   // amplitude damping, full decay
	f.Add(uint8(2), math.Float64bits(0), int64(3), uint8(1))   // dephasing, identity channel
	f.Add(uint8(3), math.Float64bits(0.5), int64(4), uint8(1)) // bit flip, maximal mixing
	f.Add(uint8(4), math.Float64bits(1.5), int64(5), uint8(0)) // out of range: must reject
	f.Add(uint8(0), math.Float64bits(math.NaN()), int64(6), uint8(0))
	f.Add(uint8(1), math.Float64bits(math.Inf(1)), int64(7), uint8(2))
	f.Add(uint8(2), math.Float64bits(5e-324), int64(8), uint8(2)) // smallest subnormal
	f.Fuzz(func(t *testing.T, kindIdx uint8, pBits uint64, stateSeed int64, qubit uint8) {
		kind := kinds[int(kindIdx)%len(kinds)]
		p := math.Float64frombits(pBits)
		ch, err := New(kind, p)
		if err != nil {
			if p >= 0 && p <= 1 && !math.IsNaN(p) {
				t.Fatalf("New(%s, %v) rejected an in-contract strength: %v", kind, p, err)
			}
			return
		}
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("New(%s, %v) accepted an out-of-contract strength", kind, p)
		}

		// Build a random entangled state, evolve it through the channel on a
		// fuzzed qubit (twice, with a unitary in between, so the invariants
		// survive composition), and check ρ stays a density matrix.
		const n = 3
		m := dd.New()
		rng := rand.New(rand.NewSource(stateSeed))
		amps := make([]complex128, 1<<n)
		var norm float64
		for i := range amps {
			amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
		}
		inv := complex(1/math.Sqrt(norm), 0)
		for i := range amps {
			amps[i] *= inv
		}
		v, err := m.FromAmplitudes(amps)
		if err != nil {
			t.Skip() // the all-zero draw
		}
		den := FromPure(m, n, v)
		q := int(qubit) % n
		den.ApplyKraus(ch.Lift(m, n, q))
		hadamard, err := circuit.Matrix1Q("h", nil)
		if err != nil {
			t.Fatal(err)
		}
		den.ApplyUnitary(m.MakeGateDD(n, hadamard, (q+1)%n))
		den.ApplyKraus(ch.Lift(m, n, (q+2)%n))

		if tr := den.Trace(); math.Abs(tr-1) > 1e-9 {
			t.Fatalf("%s p=%v: trace drifted to %v", kind, p, tr)
		}
		if pur := den.Purity(); pur <= 0 || pur > 1+1e-9 {
			t.Fatalf("%s p=%v: purity %v outside (0,1]", kind, p, pur)
		}
		var sum float64
		for _, prob := range diagonal(den) {
			if prob < 0 || prob > 1 {
				t.Fatalf("%s p=%v: diagonal entry %v outside [0,1]", kind, p, prob)
			}
			sum += prob
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s p=%v: diagonal sums to %v", kind, p, sum)
		}
	})
}
