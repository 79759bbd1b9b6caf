package gen

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/supremacy"
)

// family is one generator of the spec grammar name[:arg...].
type family struct {
	name string
	args string // argument grammar after the name, for Usage
	// defaults holds the default of each integer argument in spec order;
	// required marks one that has none. A missing or empty argument takes
	// its default, and arguments past the last one are ignored.
	defaults []int
	// word is the spec position of the family's one non-integer argument
	// (0 = none); build receives it verbatim, "" when absent.
	word  int
	build func(arg []int, word string) (*circuit.Circuit, error)
}

const required = math.MinInt

func built(c *circuit.Circuit) (*circuit.Circuit, error) { return c, nil }

var families = []family{
	{name: "qft", args: "N", defaults: []int{8}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return built(QFT(a[0]))
	}},
	{name: "iqft", args: "N", defaults: []int{8}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return built(InverseQFT(a[0]))
	}},
	{name: "ghz", args: "N", defaults: []int{8}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return built(GHZ(a[0]))
	}},
	{name: "w", args: "N", defaults: []int{8}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return built(WState(a[0]))
	}},
	{name: "grover", args: "N[:marked]", defaults: []int{8, 1}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return built(Grover(a[0], uint64(a[1]), 0))
	}},
	{name: "bv", args: "N[:secret]", defaults: []int{8, 0b1011}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return built(BernsteinVazirani(a[0], uint64(a[1])))
	}},
	{name: "dj", args: "N[:mask]", defaults: []int{8, 0}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return built(DeutschJozsa(a[0], a[1] != 0, uint64(a[1])))
	}},
	{name: "qpe", args: "T[:numerator:denominator]", defaults: []int{5, 1, 8}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		if a[2] == 0 {
			return nil, fmt.Errorf("zero denominator")
		}
		return built(PhaseEstimation(a[0], float64(a[1])/float64(a[2])))
	}},
	{name: "adder", args: "N[:a:b]", defaults: []int{4, 3, 5}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return built(RippleCarryAdder(a[0], uint64(a[1]), uint64(a[2])))
	}},
	{name: "random", args: "N:GATES[:seed]", defaults: []int{8, 100, 0}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return built(RandomCliffordT(a[0], a[1], int64(a[2])))
	}},
	{name: "qsup", args: "RxC:DEPTH[:seed]", word: 1, defaults: []int{required, 0}, build: func(a []int, grid string) (*circuit.Circuit, error) {
		r, c, ok := strings.Cut(grid, "x")
		rows, err1 := strconv.Atoi(r)
		cols, err2 := strconv.Atoi(c)
		if !ok || err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad grid %q", grid)
		}
		if rows < 1 || rows > 16 || cols < 1 || cols > 16 || a[0] < 0 || a[0] > 10000 {
			return nil, fmt.Errorf("qsup dimensions out of range")
		}
		return supremacy.Config{Rows: rows, Cols: cols, Depth: a[0], Seed: int64(a[1])}.Generate()
	}},
	{name: "qaoa", args: "N[:P[:seed]]", defaults: []int{8, 2, 0}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return QAOAConfig{Nodes: a[0], Layers: a[1], Seed: int64(a[2])}.Generate()
	}},
	{name: "vqe", args: "N[:L[:topo[:seed]]]", word: 3, defaults: []int{8, 3, 0}, build: func(a []int, topo string) (*circuit.Circuit, error) {
		if topo == "" {
			topo = VQELinear
		}
		return VQEConfig{Qubits: a[0], Layers: a[1], Topology: topo, Seed: int64(a[2])}.Generate()
	}},
	{name: "cliffordt", args: "N[:GATES[:TCOUNT[:seed]]]", defaults: []int{8, 100, 20, 0}, build: func(a []int, _ string) (*circuit.Circuit, error) {
		return CliffordTConfig{Qubits: a[0], Gates: a[1], TCount: a[2], Seed: int64(a[3])}.Generate()
	}},
}

// Usage lists every generator family with its argument grammar, for help
// text: "qft:N | iqft:N | ...".
func Usage() string {
	specs := make([]string, len(families))
	for i, f := range families {
		specs[i] = f.name + ":" + f.args
	}
	return strings.Join(specs, " | ")
}

// FromSpec builds a circuit from a compact textual spec name[:arg...],
// used by the CLI tools; Usage lists the families and their arguments.
//
// Malformed or out-of-range specs return errors, never panic: integer
// arguments are capped at ±100000 and generator validation panics are
// converted to errors at this boundary (FuzzFromSpec holds the line).
func FromSpec(spec string) (c *circuit.Circuit, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("gen: spec %q: %v", spec, r)
		}
	}()
	parts := strings.Split(spec, ":")
	i := slices.IndexFunc(families, func(f family) bool { return f.name == parts[0] })
	if i < 0 {
		return nil, fmt.Errorf("gen: unknown generator %q (one of %s)", parts[0], Usage())
	}
	f := families[i]
	arg := make([]int, 0, len(f.defaults))
	word := ""
	for pos := 1; len(arg) < len(f.defaults); pos++ {
		s := ""
		if pos < len(parts) {
			s = parts[pos]
		}
		if pos == f.word {
			word = s
			continue
		}
		v := f.defaults[len(arg)]
		if s == "" && v == required {
			return nil, fmt.Errorf("gen: spec %q: %s needs %s", spec, f.name, f.args)
		}
		if s != "" {
			if v, err = strconv.Atoi(s); err != nil {
				return nil, fmt.Errorf("gen: spec %q: bad integer %q", spec, s)
			}
			if v < -100000 || v > 100000 {
				return nil, fmt.Errorf("gen: spec %q: argument %d out of range", spec, v)
			}
		}
		arg = append(arg, v)
	}
	if c, err = f.build(arg, word); err != nil {
		return nil, fmt.Errorf("gen: spec %q: %w", spec, err)
	}
	return c, nil
}
