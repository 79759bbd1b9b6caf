package qasm

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
)

// Export renders a circuit as OpenQASM 2.0 source. Single-qubit gates keep
// their canonical names; controlled gates take their spelling from the
// parser's table (cx, cp, ccx, ...). Permutation gates, negative controls
// and controlled gates the table has no spelling for are not expressible
// in the plain 2.0 gate set and produce an error. Block boundaries are
// emitted as barriers.
func Export(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	fmt.Fprintf(&b, "creg c[%d];\n", c.NumQubits)

	blocks := map[int]bool{}
	for _, idx := range c.Blocks() {
		blocks[idx] = true
	}

	for i, g := range c.Gates() {
		line, err := exportGate(g)
		if err != nil {
			return "", fmt.Errorf("qasm: gate %d: %w", i, err)
		}
		b.WriteString(line)
		b.WriteString("\n")
		if blocks[i] {
			b.WriteString("barrier q;\n")
		}
	}
	return b.String(), nil
}

func exportGate(g circuit.Gate) (string, error) {
	if g.Kind == circuit.KindPerm {
		return "", fmt.Errorf("permutation gates are not expressible in OpenQASM 2.0")
	}
	for _, ctl := range g.Controls {
		if !ctl.Positive {
			return "", fmt.Errorf("negative controls are not expressible in OpenQASM 2.0")
		}
	}
	params := ""
	if len(g.Params) > 0 {
		parts := make([]string, len(g.Params))
		for i, p := range g.Params {
			parts[i] = fmt.Sprintf("%.17g", p)
		}
		params = "(" + strings.Join(parts, ",") + ")"
	}
	if len(g.Controls) == 0 {
		return fmt.Sprintf("%s%s q[%d];", g.Name, params, g.Target), nil
	}
	name := strings.Repeat("c", len(g.Controls)) + g.Name
	if base, _, ok := spelling(name); !ok || base != g.Name {
		return "", fmt.Errorf("gate %q with %d control(s) has no OpenQASM 2.0 form", g.Name, len(g.Controls))
	}
	var b strings.Builder
	b.WriteString(name + params)
	for _, ctl := range g.Controls {
		fmt.Fprintf(&b, " q[%d],", ctl.Qubit)
	}
	fmt.Fprintf(&b, " q[%d];", g.Target)
	return b.String(), nil
}
