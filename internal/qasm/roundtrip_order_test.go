package qasm

import (
	"bytes"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sim"
)

// These tests pin QASM round-trip behavior for circuits whose declared qubit
// order differs from the order gates first touch the register — the case the
// variable-reordering layer makes observable: if parsing or export
// renumbered qubits by first use, a "scored" ordering computed from the
// parsed circuit would target the wrong wires.

// declarationVsUseCircuit touches qubits strictly out of declaration order:
// the highest wire first, the lowest last, with cross-register couplings.
func declarationVsUseCircuit() *circuit.Circuit {
	c := circuit.New(5, "decl_vs_use")
	c.H(4)
	c.CX(4, 1)
	c.T(3)
	c.CX(3, 0)
	c.CZ(1, 2)
	c.RZ(0.25, 0)
	return c
}

const declVsUseQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
h q[4];
cx q[4],q[1];
t q[3];
cx q[3],q[0];
cz q[1],q[2];
rz(0.25) q[0];
`

// TestParsePreservesDeclaredIndices: gate operands must keep their declared
// register indices even when first use order is reversed.
func TestParsePreservesDeclaredIndices(t *testing.T) {
	prog, err := Parse(declVsUseQASM, "decl_vs_use")
	if err != nil {
		t.Fatal(err)
	}
	c := prog.Circuit
	if c.NumQubits != 5 {
		t.Fatalf("NumQubits = %d, want 5", c.NumQubits)
	}
	gates := c.Gates()
	if gates[0].Target != 4 {
		t.Fatalf("first gate targets q%d, want q4 (first-use renumbering?)", gates[0].Target)
	}
	if gates[1].Target != 1 || len(gates[1].Controls) != 1 || gates[1].Controls[0].Qubit != 4 {
		t.Fatalf("cx parsed as %+v, want control q4 target q1", gates[1])
	}
	if gates[3].Target != 0 || gates[3].Controls[0].Qubit != 3 {
		t.Fatalf("second cx parsed as %+v, want control q3 target q0", gates[3])
	}
}

// TestRoundTripDeclarationVsUseOrder: export → parse must reproduce the
// canonical encoding exactly for out-of-declaration-order circuits.
func TestRoundTripDeclarationVsUseOrder(t *testing.T) {
	orig := declarationVsUseCircuit()
	src, err := Export(orig)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(src, orig.Name)
	if err != nil {
		t.Fatalf("re-parsing exported QASM: %v\n%s", err, src)
	}
	// The canonical encoding embeds the name; compare structure by giving
	// both the same name.
	prog.Circuit.Name = orig.Name
	a := orig.AppendCanonical(nil)
	b := prog.Circuit.AppendCanonical(nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical encodings differ after round trip\noriginal:\n%q\nreparsed:\n%q\nsource:\n%s", a, b, src)
	}
}

// TestRoundTripUnusedAndGapQubits: wires the gate list never touches (q2
// here) and gaps in use order must survive a round trip — reordering
// heuristics must see them as isolated qubits, not lose them.
func TestRoundTripUnusedAndGapQubits(t *testing.T) {
	c := circuit.New(4, "gaps")
	c.H(3)
	c.CX(3, 0)
	// q1, q2 untouched.
	src, err := Export(c)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(src, c.Name)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Circuit.NumQubits != 4 {
		t.Fatalf("round trip shrank the register to %d qubits", prog.Circuit.NumQubits)
	}
}

// TestRoundTripSimulatesIdenticallyUnderReorder is the end-to-end guarantee:
// original and round-tripped circuits must produce identical amplitudes
// under the scored ordering (which depends on gate-qubit structure and would
// diverge if the round trip relabeled anything).
func TestRoundTripSimulatesIdenticallyUnderReorder(t *testing.T) {
	orig := declarationVsUseCircuit()
	src, err := Export(orig)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(src, orig.Name)
	if err != nil {
		t.Fatal(err)
	}
	run := func(c *circuit.Circuit) []complex128 {
		st, err := core.NewStrategyByName("reorder", []byte(`{"order":"scored"}`))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(c, sim.Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		return res.Manager.ToVector(res.Final, c.NumQubits)
	}
	want, got := run(orig), run(prog.Circuit)
	for i := range want {
		if d := cmplx.Abs(want[i] - got[i]); d > 1e-12 {
			t.Fatalf("amplitude[%d] differs by %g after round trip under scored order", i, d)
		}
	}
}

// TestBarrierPositionsSurviveUseOrder: block boundaries recorded between
// out-of-order gate uses must land on the same gate indices after a round
// trip (the fidelity-driven strategy schedules rounds there).
func TestBarrierPositionsSurviveUseOrder(t *testing.T) {
	c := circuit.New(3, "barriers")
	c.H(2)
	c.CX(2, 0)
	c.EndBlock()
	c.T(1)
	c.CZ(0, 1)
	c.EndBlock()
	src, err := Export(c)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(src, c.Name)
	if err != nil {
		t.Fatal(err)
	}
	want, got := c.Blocks(), prog.Circuit.Blocks()
	if len(want) != len(got) {
		t.Fatalf("blocks %v -> %v", want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("blocks %v -> %v", want, got)
		}
	}
}
