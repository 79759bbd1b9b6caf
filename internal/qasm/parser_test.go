package qasm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/sim"
)

const bellSrc = `
OPENQASM 2.0;
include "qelib1.inc";
// Bell pair
qreg q[2];
creg c[2];
h q[1];
cx q[1], q[0];
measure q[0] -> c[0];
measure q[1] -> c[1];
`

func TestParseBell(t *testing.T) {
	prog, err := Parse(bellSrc, "bell")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Circuit.NumQubits != 2 {
		t.Fatalf("qubits %d", prog.Circuit.NumQubits)
	}
	if prog.Circuit.Len() != 2 {
		t.Fatalf("gates %d, want 2 (measures are not gates)", prog.Circuit.Len())
	}
	if len(prog.Measurements) != 2 {
		t.Fatalf("measurements %d", len(prog.Measurements))
	}
	res, err := sim.Run(prog.Circuit, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p00 := res.Manager.Probability(res.Final, 0b00, 2)
	p11 := res.Manager.Probability(res.Final, 0b11, 2)
	if math.Abs(p00-0.5) > 1e-9 || math.Abs(p11-0.5) > 1e-9 {
		t.Errorf("Bell probabilities %v %v", p00, p11)
	}
}

func TestParseParameterExpressions(t *testing.T) {
	src := `
OPENQASM 2.0;
qreg q[1];
rz(pi/2) q[0];
rx(-pi/4) q[0];
u3(pi/2, 0, pi) q[0];
p(2*pi - pi/3) q[0];
ry((1+2)*0.5) q[0];
`
	prog, err := Parse(src, "params")
	if err != nil {
		t.Fatal(err)
	}
	gates := prog.Circuit.Gates()
	if gates[0].Params[0] != math.Pi/2 {
		t.Errorf("rz param %v", gates[0].Params[0])
	}
	if gates[1].Params[0] != -math.Pi/4 {
		t.Errorf("rx param %v", gates[1].Params[0])
	}
	if got := gates[3].Params[0]; math.Abs(got-(2*math.Pi-math.Pi/3)) > 1e-15 {
		t.Errorf("p param %v", got)
	}
	if got := gates[4].Params[0]; got != 1.5 {
		t.Errorf("ry param %v", got)
	}
}

func TestParseMultiRegister(t *testing.T) {
	src := `
OPENQASM 2.0;
qreg a[2];
qreg b[3];
x a[1];
cx a[0], b[2];
`
	prog, err := Parse(src, "multi")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Circuit.NumQubits != 5 {
		t.Fatalf("qubits %d", prog.Circuit.NumQubits)
	}
	// b[2] is flat qubit 2+2=4.
	g := prog.Circuit.Gates()[1]
	if g.Target != 4 || g.Controls[0].Qubit != 0 {
		t.Errorf("cx mapped to target %d control %d", g.Target, g.Controls[0].Qubit)
	}
}

func TestParseControlledAndCompound(t *testing.T) {
	src := `
OPENQASM 2.0;
qreg q[3];
ccx q[0], q[1], q[2];
swap q[0], q[2];
cswap q[2], q[0], q[1];
cp(pi/8) q[1], q[0];
barrier q;
cz q[0], q[1];
`
	prog, err := Parse(src, "compound")
	if err != nil {
		t.Fatal(err)
	}
	c := prog.Circuit
	if len(c.Blocks()) != 1 {
		t.Errorf("barrier not mapped to block: %v", c.Blocks())
	}
	counts := map[string]int{}
	for _, g := range c.Gates() {
		counts[g.Name]++
	}
	// ccx → 1 x-with-2-controls; swap → 3 cx; cswap → 3 ccx; cp → p; cz → z.
	if counts["x"] != 1+3+3 || counts["p"] != 1 || counts["z"] != 1 {
		t.Errorf("gate counts %v", counts)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no qreg":         `OPENQASM 2.0; x q[0];`,
		"bad index":       "qreg q[2];\nx q[5];",
		"unknown gate":    "qreg q[1];\nfrob q[0];",
		"missing semi":    "qreg q[1];\nx q[0]",
		"unknown reg":     "qreg q[1];\nx r[0];",
		"custom gate":     "qreg q[1];\ngate foo a { x a; }",
		"div by zero":     "qreg q[1];\nrz(1/0) q[0];",
		"unterm string":   `include "qelib;`,
		"dup qreg":        "qreg q[1];\nqreg q[2];",
		"zero size":       "qreg q[0];",
		"measure bad dst": "qreg q[1];\ncreg c[1];\nmeasure q[0] -> d[0];",
	}
	for name, src := range cases {
		if _, err := Parse(src, "t"); err == nil {
			t.Errorf("%s: accepted invalid program", name)
		}
	}
}

func TestLexerLineTracking(t *testing.T) {
	src := "qreg q[1];\n\n\nx q[5];"
	_, err := Parse(src, "t")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %v does not point to line 4", err)
	}
	// A lexing error anywhere in the source outranks an earlier parse error.
	_, err = Parse("qreg q[1];\nx q[5];\n\n$", "t")
	if err == nil || !strings.Contains(err.Error(), "line 4: unexpected character") {
		t.Errorf("error %v does not report the lexing error on line 4", err)
	}
}

func TestParsedCircuitMatchesHandBuilt(t *testing.T) {
	src := `
OPENQASM 2.0;
qreg q[3];
h q[0];
h q[1];
h q[2];
cz q[0], q[1];
t q[2];
sdg q[0];
`
	prog, err := Parse(src, "hand")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(prog.Circuit, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built equivalent through the circuit API.
	hand := circuit.New(3, "hand")
	hand.H(0)
	hand.H(1)
	hand.H(2)
	hand.CZ(0, 1)
	hand.T(2)
	hand.Sdg(0)
	res2, err := sim.Run(hand, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-manager comparison via amplitude vectors.
	v1 := res.Manager.ToVector(res.Final, 3)
	v2 := res2.Manager.ToVector(res2.Final, 3)
	for i := range v1 {
		if cmplxAbs(v1[i]-v2[i]) > 1e-12 {
			t.Fatalf("parsed circuit diverges from hand-built at amplitude %d: %v vs %v", i, v1[i], v2[i])
		}
	}
}

func cmplxAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// TestStatementBoundResistsPadding checks that the gate slice is presized
// from the statements of an untrusted source, not from every ';' in it.
func TestStatementBoundResistsPadding(t *testing.T) {
	pad := strings.Repeat(";", 1<<20)
	prog, err := Parse("qreg q[1];\nh q[0]; //"+pad+"\nx q[0];\n", "pad")
	if err != nil {
		t.Fatal(err)
	}
	if n := cap(prog.Circuit.Gates()); n > 16 {
		t.Errorf("1 MiB of ';' in a comment reserved room for %d gates", n)
	}
	bare := "qreg q[1];\n" + pad
	if n, limit := statementBound(bare), len(bare)/len("h q[0];"); n > limit {
		t.Errorf("bare ';' run reserves %d gates, more than the %d its length can hold", n, limit)
	}
	src, err := Export(gen.CliffordT(16, 400, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	prog, err = Parse(src, "cliffordt")
	if err != nil {
		t.Fatal(err)
	}
	if n, gates := statementBound(src), len(prog.Circuit.Gates()); n < gates {
		t.Errorf("statementBound = %d, below the export's %d gates", n, gates)
	}
}
