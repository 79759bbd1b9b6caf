package qasm

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/sim"
)

func TestExportRoundTrip(t *testing.T) {
	circuits := []*circuit.Circuit{
		gen.QFT(4),
		gen.GHZ(5),
		gen.BernsteinVazirani(4, 0b1010),
		gen.RandomCliffordT(4, 40, 9),
	}
	for _, orig := range circuits {
		src, err := Export(orig)
		if err != nil {
			t.Fatalf("%s: %v", orig.Name, err)
		}
		prog, err := Parse(src, orig.Name+"_rt")
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", orig.Name, err, src)
		}
		// Semantically identical: same final state from |0...0⟩.
		r1, err := sim.Run(orig, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sim.Run(prog.Circuit, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v1 := r1.Manager.ToVector(r1.Final, orig.NumQubits)
		v2 := r2.Manager.ToVector(r2.Final, orig.NumQubits)
		for i := range v1 {
			if cmplxAbs(v1[i]-v2[i]) > 1e-9 {
				t.Fatalf("%s: round trip diverged at amplitude %d: %v vs %v",
					orig.Name, i, v1[i], v2[i])
			}
		}
	}
}

func TestExportBarriers(t *testing.T) {
	c := circuit.New(2, "blocks")
	c.H(0)
	c.EndBlock()
	c.X(1)
	src, err := Export(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "barrier q;") {
		t.Errorf("block boundary not exported as barrier:\n%s", src)
	}
	prog, err := Parse(src, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Circuit.Blocks()) != 1 {
		t.Errorf("barrier did not round-trip to a block boundary")
	}
}

func TestExportParameterPrecision(t *testing.T) {
	c := circuit.New(1, "prec")
	c.RZ(0.12345678901234567, 0)
	src, err := Export(c)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(src, "rt")
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Circuit.Gates()[0].Params[0]
	if got != 0.12345678901234567 {
		t.Errorf("parameter precision lost: %v", got)
	}
}

func TestExportUnsupported(t *testing.T) {
	c := circuit.New(4, "perm")
	c.Permutation([]int{1, 0}, 1)
	if _, err := Export(c); err == nil {
		t.Error("permutation gate exported to QASM 2.0")
	}
	c2 := circuit.New(4, "neg")
	c2.Apply("x", nil, 0, dd.NegControl(1))
	if _, err := Export(c2); err == nil {
		t.Error("negative control exported to QASM 2.0")
	}
	c3 := circuit.New(4, "mcx3")
	c3.Apply("x", nil, 0, dd.PosControl(1), dd.PosControl(2), dd.PosControl(3))
	if _, err := Export(c3); err == nil {
		t.Error("3-controlled X exported to QASM 2.0")
	}
	c4 := circuit.New(3, "ct")
	c4.Apply("t", nil, 0, dd.PosControl(1))
	if _, err := Export(c4); err == nil {
		t.Error("controlled-T exported without a standard form")
	}
}

// TestSpellingRoundTrip parses one statement per row of the multi-qubit
// spelling table, exports the circuit and parses the export again: both
// parses must give the same canonical bytes.
func TestSpellingRoundTrip(t *testing.T) {
	for _, name := range []string{"cx", "cy", "cz", "ch", "cp", "cu1", "crz", "ccx", "ccz", "swap", "cswap"} {
		base, qubits, ok := spelling(name)
		if !ok {
			t.Fatalf("%s is not in the spelling table", name)
		}
		stmt := name
		if n, _ := circuit.GateParams(base); n > 0 {
			stmt += "(0.375)"
		}
		operands := []string{"q[2]", "q[0]", "q[3]"}[:qubits]
		src := "qreg q[4];\n" + stmt + " " + strings.Join(operands, ", ") + ";\n"
		first, err := Parse(src, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := Export(first.Circuit)
		if err != nil {
			t.Fatalf("%s: export: %v", name, err)
		}
		again, err := Parse(out, name)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", name, err, out)
		}
		if !bytes.Equal(first.Circuit.AppendCanonical(nil), again.Circuit.AppendCanonical(nil)) {
			t.Errorf("%s: round trip changed the canonical bytes:\n%s", name, out)
		}
	}
}
