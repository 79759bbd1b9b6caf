package circuit

import (
	"math"
	"math/cmplx"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dd"
)

var allFixedGates = []string{
	"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "sy", "sydg",
}

func mul2x2(a, b [4]complex128) [4]complex128 {
	return [4]complex128{
		a[0]*b[0] + a[1]*b[2], a[0]*b[1] + a[1]*b[3],
		a[2]*b[0] + a[3]*b[2], a[2]*b[1] + a[3]*b[3],
	}
}

func isIdentity2x2(u [4]complex128, tol float64) bool {
	return cmplx.Abs(u[0]-1) < tol && cmplx.Abs(u[1]) < tol &&
		cmplx.Abs(u[2]) < tol && cmplx.Abs(u[3]-1) < tol
}

func adjoint2x2(u [4]complex128) [4]complex128 {
	conj := func(c complex128) complex128 { return complex(real(c), -imag(c)) }
	return [4]complex128{conj(u[0]), conj(u[2]), conj(u[1]), conj(u[3])}
}

func TestAllGatesAreUnitary(t *testing.T) {
	cases := map[string][]float64{}
	for _, name := range allFixedGates {
		cases[name] = nil
	}
	cases["rx"] = []float64{0.7}
	cases["ry"] = []float64{1.3}
	cases["rz"] = []float64{-2.1}
	cases["p"] = []float64{0.9}
	cases["u1"] = []float64{0.4}
	cases["u2"] = []float64{0.3, -1.2}
	cases["u3"] = []float64{1.1, 0.2, -0.8}
	cases["u"] = []float64{0.5, 0.6, 0.7}
	for name, params := range cases {
		u, err := Matrix1Q(name, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !isIdentity2x2(mul2x2(u, adjoint2x2(u)), 1e-12) {
			t.Errorf("%s is not unitary: %v", name, u)
		}
	}
}

func TestSquareRootGates(t *testing.T) {
	sx, _ := Matrix1Q("sx", nil)
	x, _ := Matrix1Q("x", nil)
	got := mul2x2(sx, sx)
	for i := range got {
		if cmplx.Abs(got[i]-x[i]) > 1e-12 {
			t.Fatalf("sx² != x: %v vs %v", got, x)
		}
	}
	sy, _ := Matrix1Q("sy", nil)
	y, _ := Matrix1Q("y", nil)
	got = mul2x2(sy, sy)
	for i := range got {
		if cmplx.Abs(got[i]-y[i]) > 1e-12 {
			t.Fatalf("sy² != y: %v vs %v", got, y)
		}
	}
}

func TestRotationIdentities(t *testing.T) {
	// rz(π) == Z up to global phase; p(π) == Z exactly.
	rz, _ := Matrix1Q("rz", []float64{math.Pi})
	z, _ := Matrix1Q("z", nil)
	phase := z[0] / rz[0]
	for i := range rz {
		if cmplx.Abs(rz[i]*phase-z[i]) > 1e-12 {
			t.Fatalf("rz(π) != Z up to phase")
		}
	}
	p, _ := Matrix1Q("p", []float64{math.Pi})
	for i := range p {
		if cmplx.Abs(p[i]-z[i]) > 1e-12 {
			t.Fatalf("p(π) != Z")
		}
	}
	// u3(π/2, 0, π) == H up to phase.
	u, _ := Matrix1Q("u3", []float64{math.Pi / 2, 0, math.Pi})
	h, _ := Matrix1Q("h", nil)
	phase = h[0] / u[0]
	for i := range u {
		if cmplx.Abs(u[i]*phase-h[i]) > 1e-12 {
			t.Fatalf("u3(π/2,0,π) != H up to phase")
		}
	}
}

func TestUnknownGateRejected(t *testing.T) {
	if _, err := Matrix1Q("frobnicate", nil); err == nil {
		t.Error("unknown gate accepted")
	}
	if _, err := Matrix1Q("rx", nil); err == nil {
		t.Error("rx without parameter accepted")
	}
	if _, err := Matrix1Q("h", []float64{1}); err == nil {
		t.Error("h with parameter accepted")
	}
}

func TestInverseGateMatrices(t *testing.T) {
	cases := []struct {
		name   string
		params []float64
	}{
		{"x", nil}, {"h", nil}, {"s", nil}, {"sdg", nil}, {"t", nil}, {"tdg", nil},
		{"sx", nil}, {"sy", nil},
		{"rx", []float64{0.8}}, {"ry", []float64{-1.1}}, {"rz", []float64{2.2}},
		{"p", []float64{0.3}}, {"u2", []float64{0.4, 1.7}}, {"u3", []float64{0.5, -0.6, 0.7}},
	}
	for _, tc := range cases {
		u, err := Matrix1Q(tc.name, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		invName, invParams, err := InverseGate(tc.name, tc.params)
		if err != nil {
			t.Fatalf("InverseGate(%s): %v", tc.name, err)
		}
		v, err := Matrix1Q(invName, invParams)
		if err != nil {
			t.Fatal(err)
		}
		if !isIdentity2x2(mul2x2(u, v), 1e-12) {
			t.Errorf("%s · %s != I", tc.name, invName)
		}
	}
}

func TestBuilderAndBlocks(t *testing.T) {
	c := New(3, "demo")
	c.H(0)
	c.CX(0, 1)
	c.EndBlock()
	c.T(2)
	c.EndBlock()
	c.EndBlock() // duplicate, ignored
	if c.Len() != 3 {
		t.Fatalf("len %d", c.Len())
	}
	if got := c.Blocks(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("blocks %v", got)
	}
	empty := New(2, "empty")
	empty.EndBlock() // before any gate, ignored
	if len(empty.Blocks()) != 0 {
		t.Error("boundary before first gate recorded")
	}
}

func TestAppendValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	c := New(2, "v")
	mustPanic("target out of range", func() { c.H(2) })
	mustPanic("control out of range", func() { c.CX(5, 0) })
	mustPanic("control==target", func() { c.CX(0, 0) })
	mustPanic("unknown gate", func() { c.Apply("nope", nil, 0) })
	mustPanic("bad perm width", func() { c.Permutation([]int{0, 1}, 3) })
	mustPanic("bad perm length", func() { c.Permutation([]int{0, 1, 2}, 2) })
	mustPanic("perm control overlap", func() {
		c.Permutation([]int{0, 1}, 1, dd.PosControl(0))
	})
	mustPanic("zero qubits", func() { New(0, "x") })
}

// TestAppendPanicMessages pins the text of Append's unitary-gate panics,
// and that validating a well-formed gate allocates nothing.
func TestAppendPanicMessages(t *testing.T) {
	c := New(4, "m")
	for _, tc := range []struct {
		g    Gate
		want string
	}{
		{Gate{Name: "h", Target: 4}, "circuit: qubit 4 out of range [0,4)"},
		{Gate{Name: "nope", Target: 0}, `circuit: unknown gate "nope"`},
		{Gate{Name: "rz", Target: 0}, `circuit: gate "rz" takes 1 parameter(s), got 0`},
		{Gate{Name: "h", Target: 0, Params: []float64{1}}, `circuit: gate "h" takes 0 parameter(s), got 1`},
		{Gate{Name: "x", Target: 1, Controls: []dd.Control{dd.PosControl(1)}}, `circuit: duplicate qubit 1 in gate "x"`},
		{Gate{Name: "x", Target: 0, Controls: []dd.Control{dd.PosControl(2), dd.PosControl(3), dd.NegControl(2)}},
			`circuit: duplicate qubit 2 in gate "x"`},
		{Gate{Name: "x", Target: 0, Controls: []dd.Control{dd.PosControl(2), dd.PosControl(7)}},
			"circuit: qubit 7 out of range [0,4)"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%v: panic %v, want %q", tc.g, got, tc.want)
				}
			}()
			c.Append(tc.g)
		}()
	}
	g := Gate{Name: "u3", Target: 0, Params: []float64{1, 2, 3},
		Controls: []dd.Control{dd.PosControl(1), dd.PosControl(2), dd.NegControl(3)}}
	c.Grow(1000)
	if allocs := testing.AllocsPerRun(100, func() { c.Append(g) }); allocs != 0 {
		t.Errorf("Append allocated %v times per gate", allocs)
	}
}

func TestSwapViaCNOTs(t *testing.T) {
	c := New(2, "swap")
	c.SWAP(0, 1)
	if c.Len() != 3 {
		t.Errorf("SWAP expands to %d gates, want 3", c.Len())
	}
}

func TestInverseCircuit(t *testing.T) {
	c := New(3, "fwd")
	c.H(0)
	c.CX(0, 1)
	c.T(2)
	c.RZ(0.7, 1)
	c.Permutation([]int{1, 2, 0, 3}, 2, dd.PosControl(2))
	inv, err := c.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if inv.Len() != c.Len() {
		t.Fatalf("inverse length %d", inv.Len())
	}
	// Inverse of the permutation [1,2,0,3] is [2,0,1,3].
	g := inv.Gates()[0]
	if g.Kind != KindPerm || !reflect.DeepEqual(g.Perm, []int{2, 0, 1, 3}) {
		t.Errorf("inverse permutation = %v", g.Perm)
	}
	// Last gate of inverse is h q0 (self-inverse).
	last := inv.Gates()[inv.Len()-1]
	if last.Name != "h" || last.Target != 0 {
		t.Errorf("last inverse gate = %v", last)
	}
	// t must become tdg.
	found := false
	for _, g := range inv.Gates() {
		if g.Name == "tdg" {
			found = true
		}
	}
	if !found {
		t.Error("t was not inverted to tdg")
	}
}

func TestDepthAndCounts(t *testing.T) {
	c := New(3, "d")
	c.H(0) // layer 1
	c.H(1) // layer 1
	c.CX(0, 1)
	c.H(2) // layer 1
	c.CX(1, 2)
	if got := c.Depth(); got != 3 {
		t.Errorf("depth %d, want 3", got)
	}
	counts := map[string]int{}
	for _, g := range c.Gates() {
		counts[g.Name]++
	}
	if counts["h"] != 3 || counts["x"] != 2 {
		t.Errorf("counts %v", counts)
	}
	if !strings.Contains(c.String(), "3 qubits") {
		t.Errorf("String() = %q", c.String())
	}
}

func TestGateString(t *testing.T) {
	c := New(3, "s")
	c.CP(0.5, 2, 0)
	s := c.Gates()[0].String()
	if !strings.Contains(s, "p(0.5)") || !strings.Contains(s, "c+q2") || !strings.Contains(s, "q0") {
		t.Errorf("gate string %q", s)
	}
	c.Permutation([]int{0, 1, 2, 3}, 2)
	s = c.Gates()[1].String()
	if !strings.Contains(s, "perm") {
		t.Errorf("perm string %q", s)
	}
}
