package gen

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/dd"
)

// DeutschJozsa returns a Deutsch–Jozsa circuit on n data qubits (oracle
// qubit is qubit n). For balanced == false the oracle is constant-zero and
// the data qubits measure |0...0⟩ with certainty; for balanced == true the
// oracle computes the parity of the data bits against `mask` (a balanced
// function for any non-zero mask) and the data qubits measure |mask⟩.
func DeutschJozsa(n int, balanced bool, mask uint64) *circuit.Circuit {
	c := circuit.New(n+1, "deutsch-jozsa")
	c.X(n)
	c.H(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	if balanced {
		if mask == 0 {
			mask = 1
		}
		for q := 0; q < n; q++ {
			if mask>>uint(q)&1 == 1 {
				c.CX(q, n)
			}
		}
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	return c
}

// PhaseEstimation returns a quantum phase-estimation circuit estimating the
// eigenphase φ of the single-qubit unitary p(2πφ) on its |1⟩ eigenstate,
// with t counting qubits. Layout: qubit 0 is the eigenstate register
// (prepared in |1⟩), qubits [1, t+1) count. Measuring the counting register
// yields round(φ·2^t) with high probability.
func PhaseEstimation(t int, phi float64) *circuit.Circuit {
	if t < 1 {
		panic(fmt.Sprintf("gen: phase estimation needs at least one counting qubit, got %d", t))
	}
	c := circuit.New(t+1, "qpe")
	c.X(0) // eigenstate |1⟩ of the phase gate
	for j := 0; j < t; j++ {
		c.H(1 + j)
	}
	c.EndBlock()
	// Controlled-U^(2^j): U = p(2πφ) so U^(2^j) = p(2πφ·2^j).
	for j := 0; j < t; j++ {
		angle := 2 * math.Pi * phi * float64(uint64(1)<<uint(j))
		c.Apply("p", []float64{angle}, 0, dd.PosControl(1+j))
		c.EndBlock()
	}
	qs := make([]int, t)
	for j := 0; j < t; j++ {
		qs[j] = 1 + j
	}
	AppendInverseQFT(c, qs, true, true)
	return c
}

// RippleCarryAdder returns a circuit computing (a + b) mod 2^n into the b
// register using the Cuccaro ripple-carry construction with Toffoli gates.
// Layout: qubit 0 is the carry ancilla, qubits [1, n+1) hold a, qubits
// [n+1, 2n+1) hold b. Inputs are classical constants loaded with X gates;
// the sum appears in the b register.
func RippleCarryAdder(n int, a, b uint64) *circuit.Circuit {
	if n < 1 || n > 20 {
		panic(fmt.Sprintf("gen: adder width %d out of range", n))
	}
	c := circuit.New(2*n+1, "adder")
	aq := func(i int) int { return 1 + i }
	bq := func(i int) int { return 1 + n + i }

	for i := 0; i < n; i++ {
		if a>>uint(i)&1 == 1 {
			c.X(aq(i))
		}
		if b>>uint(i)&1 == 1 {
			c.X(bq(i))
		}
	}
	c.EndBlock()

	// MAJ cascade (majority): carry in qubit 0.
	maj := func(cIn, aBit, bBit int) {
		c.CX(aBit, bBit)
		c.CX(aBit, cIn)
		c.CCX(cIn, bBit, aBit)
	}
	uma := func(cIn, aBit, bBit int) {
		c.CCX(cIn, bBit, aBit)
		c.CX(aBit, cIn)
		c.CX(cIn, bBit)
	}
	carry := 0
	for i := 0; i < n; i++ {
		maj(carryQubit(carry, aq, i), aq(i), bq(i))
	}
	// (The carry-out would land on a(n-1); this mod-2^n adder drops it.)
	for i := n - 1; i >= 0; i-- {
		uma(carryQubit(carry, aq, i), aq(i), bq(i))
	}
	c.EndBlock()
	return c
}

// carryQubit returns the carry-in wire for bit i: the dedicated ancilla for
// bit 0, and a(i-1) afterwards (Cuccaro's in-place trick).
func carryQubit(carry int, aq func(int) int, i int) int {
	if i == 0 {
		return carry
	}
	return aq(i - 1)
}
