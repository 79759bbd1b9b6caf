package serve

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/qasm"
)

// TestAliasesMatchCanonicalNames submits one circuit spelled with each gate
// alias and again with its canonical name, as QASM and as inline gates, and
// requires every consumer of the circuit to see the same thing: gate names,
// canonical bytes, content hash, workload class, QASM export and optimizer
// output.
func TestAliasesMatchCanonicalNames(t *testing.T) {
	for _, tc := range []struct {
		alias, canon string
		params       []float64
	}{
		{"u1", "p", []float64{math.Pi / 4}},
		{"phase", "p", []float64{math.Pi / 4}},
		{"u", "u3", []float64{0.1, 0.2, 0.3}},
		{"i", "id", nil},
	} {
		// The aliased gate sits twice on q2 between Clifford+T gates, so the
		// optimizer merges (p) or drops (id) it, and the class depends on it.
		qasmOf := func(name string) string {
			g := name
			if len(tc.params) > 0 {
				args := make([]string, len(tc.params))
				for i, v := range tc.params {
					args[i] = strconv.FormatFloat(v, 'g', -1, 64)
				}
				g += "(" + strings.Join(args, ",") + ")"
			}
			return "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0], q[1];\nt q[1];\n" +
				g + " q[2];\n" + g + " q[2];\ns q[1];\n"
		}
		inlineOf := func(name string) JobRequest {
			return JobRequest{Qubits: 3, Gates: []GateSpec{
				{Name: "h", Target: 0}, {Name: "x", Target: 1, Controls: []int{0}}, {Name: "t", Target: 1},
				{Name: name, Params: tc.params, Target: 2}, {Name: name, Params: tc.params, Target: 2},
				{Name: "s", Target: 1},
			}}
		}
		for _, path := range []struct {
			name        string
			alias, want JobRequest
		}{
			{"qasm", JobRequest{QASM: qasmOf(tc.alias)}, JobRequest{QASM: qasmOf(tc.canon)}},
			{"inline", inlineOf(tc.alias), inlineOf(tc.canon)},
		} {
			t.Run(tc.alias+"/"+path.name, func(t *testing.T) {
				got, err := resolveCircuit(path.alias)
				if err != nil {
					t.Fatal(err)
				}
				want, err := resolveCircuit(path.want)
				if err != nil {
					t.Fatal(err)
				}
				if g := got.Gates()[3].Name; g != tc.canon {
					t.Errorf("Gate.Name %q, want %q", g, tc.canon)
				}
				if !bytes.Equal(got.AppendCanonical(nil), want.AppendCanonical(nil)) {
					t.Error("canonical bytes differ")
				}
				hg, err := CanonicalHash(path.alias)
				if err != nil {
					t.Fatal(err)
				}
				hw, err := CanonicalHash(path.want)
				if err != nil {
					t.Fatal(err)
				}
				if hg != hw {
					t.Errorf("content hash %s, want %s", hg, hw)
				}
				if cg, cw := gen.Classify(got), gen.Classify(want); cg != cw {
					t.Errorf("class %s, want %s", cg, cw)
				}
				eg, err := qasm.Export(got)
				if err != nil {
					t.Fatal(err)
				}
				ew, err := qasm.Export(want)
				if err != nil {
					t.Fatal(err)
				}
				if eg != ew {
					t.Errorf("export:\n%s\nwant:\n%s", eg, ew)
				}
				og, sg := opt.Optimize(got)
				ow, sw := opt.Optimize(want)
				if sg != sw || !bytes.Equal(og.AppendCanonical(nil), ow.AppendCanonical(nil)) {
					t.Errorf("optimized %v (%+v), want %v (%+v)", og.Gates(), sg, ow.Gates(), sw)
				}
			})
		}
	}
}
