package qasm

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/verify"
)

// TestExportParseRoundTripEveryFamily: for every generator family, Export
// either rejects the circuit (only the families listed as inexpressible in
// plain OpenQASM 2.0) or Parse reads the export back as an equivalent
// unitary. Supremacy circuits exercise the sy gate, which Export writes
// and Parse must therefore accept.
func TestExportParseRoundTripEveryFamily(t *testing.T) {
	specs := []string{
		"qft:5", "iqft:5", "ghz:5", "w:4", "grover:5:3", "bv:5:11", "dj:4:5",
		"qpe:3", "adder:2:1:2", "random:5:40:3", "qsup:3x3:10:0", "qaoa:6",
		"vqe:5", "cliffordt:6",
	}
	// inexpressible lists the families whose circuits use gates Export
	// rejects: controlled ry (W state) and z with 4 controls (Grover).
	inexpressible := map[string]bool{"w:4": true, "grover:5:3": true}
	for _, spec := range specs {
		orig, err := gen.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		src, err := Export(orig)
		if err != nil {
			if !inexpressible[spec] {
				t.Errorf("%s: export: %v", spec, err)
			}
			continue
		}
		if inexpressible[spec] {
			t.Errorf("%s: export succeeded; drop it from the inexpressible list", spec)
		}
		prog, err := Parse(src, orig.Name)
		if err != nil {
			t.Errorf("%s: reparse: %v", spec, err)
			continue
		}
		res, err := verify.Equivalent(orig, prog.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !res.Equivalent {
			t.Errorf("%s: reparsed export is not equivalent to the original", spec)
		}
	}
}
