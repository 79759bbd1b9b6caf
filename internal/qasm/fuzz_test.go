package qasm

import (
	"bytes"
	"testing"
)

// fuzzSeeds covers the supported statement surface plus the malformed shapes
// that used to panic the parser: wrong gate arity, wrong parameter counts,
// repeated operands, zero-size and overflowing registers.
var fuzzSeeds = []string{
	"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n" +
		"h q[0];\ncx q[0], q[1];\nrz(pi/4) q[2];\nu3(0.1,0.2,0.3) q[3];\n" +
		"barrier q;\nccx q[0], q[1], q[2];\nswap q[2], q[3];\nmeasure q[0] -> c[0];\n",
	"OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncp(pi/2) a[0], b[1];\ncswap a[0], a[1], b[0];\n",
	"qreg q[1];\nu(1.0, -2.0, 3e-1) q[0];\nsxdg q[0];\nid q[0];\n",
	"qreg q[2];\ncx q[0];\n",                                       // missing operand
	"qreg q[1];\nrx q[0];\n",                                       // missing parameter
	"qreg q[1];\nx(1.5) q[0];\n",                                   // parameter on a fixed gate
	"qreg q[2];\ncx q[0], q[0];\n",                                 // repeated operand
	"qreg q[2];\nswap q[1], q[1];\n",                               // repeated operand via swap
	"qreg q[1];\nrx(1e308*10) q[0];\n",                             // overflow to +Inf
	"qreg q[0];\n",                                                 // zero-size register
	"qreg a[9223372036854775807];\nqreg b[9223372036854775807];\n", // index overflow
	"OPENQASM 2.0;\nqreg q[1];\nh q[0]",                            // missing terminator
	"qreg q[1];\nmeasure q[0] -> c[0];\n",                          // measure into undeclared creg
	"\"unterminated",
	"qreg \xe9[2];\nh \xe9[0];\ncx \xe9[0], \xe9[1];\n", // Latin-1 letter byte in an identifier
	"qreg q\xb2[1];\n",                                  // superscript two: not an identifier byte
	"qreg \u00e9t\u00e9[1];\nx \u00e9t\u00e9[0];\n",     // UTF-8 identifier
	"qreg q[2];\nbarrier q;\nbarrier q;\nh q[0];\nbarrier q;\nbarrier q;\n",
	"gate foo a { x a; }\n",
	"qreg q[2];\nphase(pi/8) q[0];\nu1(pi/8) q[1];\ni q[0];\ncu1(0.5) q[0], q[1];\n", // aliases
}

// FuzzQASMParse asserts that Parse never panics on arbitrary input, that it
// agrees with the oracle parser (oracle_test.go) on every input, and that
// any program it accepts survives an export/reparse round trip: the reparsed
// circuit must have the same width and the same canonical encoding.
func FuzzQASMParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkMatchesOracle(t, src)
		prog, err := Parse(src, "fuzz")
		if err != nil {
			return
		}
		out, err := Export(prog.Circuit)
		if err != nil {
			// Not all accepted circuits are expressible in plain QASM 2.0.
			return
		}
		again, err := Parse(out, "fuzz")
		if err != nil {
			t.Fatalf("exported program does not reparse: %v\n%s", err, out)
		}
		if again.Circuit.NumQubits != prog.Circuit.NumQubits {
			t.Fatalf("round trip changed width: %d -> %d", prog.Circuit.NumQubits, again.Circuit.NumQubits)
		}
		a := prog.Circuit.AppendCanonical(nil)
		b := again.Circuit.AppendCanonical(nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("round trip changed the canonical encoding:\noriginal:\n%s\nexported:\n%s", src, out)
		}
	})
}
