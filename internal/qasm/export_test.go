package qasm

import (
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
		s1 := sim.New()
		r1, err := s1.Run(orig, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s2 := sim.New()
		r2, err := s2.Run(prog.Circuit, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v1 := s1.M.ToVector(r1.Final, orig.NumQubits)
		v2 := s2.M.ToVector(r2.Final, orig.NumQubits)
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
