package qasm

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/dd"
)

// Program is a parsed QASM file mapped onto the circuit IR.
type Program struct {
	Circuit *circuit.Circuit
	// Registers maps qreg names to [offset, size].
	Registers map[string][2]int
	// Measurements lists (qubit, classical bit) pairs from measure
	// statements, in order. The simulator samples instead of performing
	// mid-circuit collapses; the list lets callers map samples to creg bits.
	Measurements [][2]int
}

// parser pulls tokens from the lexer one at a time; the grammar needs no
// lookahead past the current token.
type parser struct {
	lex    *lexer
	tok    token
	lexErr error // first lexing error; the token stream ends there

	qregs  map[string][2]int
	cregs  map[string][2]int
	qCount int
	cCount int

	ops []operation
}

type operation struct {
	name    string
	params  []float64
	qubits  []int
	measure [2]int
	isMeas  bool
	barrier bool
}

// Parse converts QASM source into a Program.
func Parse(src, name string) (*Program, error) {
	p := &parser{
		lex:   newLexer(src),
		qregs: map[string][2]int{},
		cregs: map[string][2]int{},
	}
	p.advance()
	err := p.parse()
	// A lexing error anywhere in the source outranks a parse error.
	for p.lexErr == nil && !p.atEOF() {
		p.advance()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	if p.qCount == 0 {
		return nil, fmt.Errorf("qasm: no qreg declared")
	}
	c := circuit.New(p.qCount, name)
	prog := &Program{Circuit: c, Registers: p.qregs}
	for _, op := range p.ops {
		switch {
		case op.barrier:
			c.EndBlock()
		case op.isMeas:
			prog.Measurements = append(prog.Measurements, op.measure)
		default:
			if err := applyOp(c, op); err != nil {
				return nil, err
			}
		}
	}
	return prog, nil
}

// gateSpec fixes the operand and parameter arity of every supported gate, so
// malformed statements become parse errors instead of panics deeper in the
// circuit builder.
var gateSpec = map[string]struct{ qubits, params int }{
	"x": {1, 0}, "y": {1, 0}, "z": {1, 0}, "h": {1, 0}, "s": {1, 0},
	"sdg": {1, 0}, "t": {1, 0}, "tdg": {1, 0}, "sx": {1, 0}, "sxdg": {1, 0},
	"sy": {1, 0}, "sydg": {1, 0}, "id": {1, 0}, "i": {1, 0},
	"rx": {1, 1}, "ry": {1, 1}, "rz": {1, 1}, "p": {1, 1}, "u1": {1, 1},
	"u2": {1, 2}, "u3": {1, 3}, "u": {1, 3},
	"cx": {2, 0}, "cy": {2, 0}, "cz": {2, 0}, "ch": {2, 0},
	"cp": {2, 1}, "cu1": {2, 1}, "crz": {2, 1},
	"ccx": {3, 0}, "ccz": {3, 0},
	"swap": {2, 0}, "cswap": {3, 0},
}

func applyOp(c *circuit.Circuit, op operation) error {
	spec, ok := gateSpec[op.name]
	if !ok {
		return fmt.Errorf("qasm: unsupported gate %q", op.name)
	}
	if len(op.qubits) != spec.qubits {
		return fmt.Errorf("qasm: gate %q takes %d qubit operand(s), got %d", op.name, spec.qubits, len(op.qubits))
	}
	if len(op.params) != spec.params {
		return fmt.Errorf("qasm: gate %q takes %d parameter(s), got %d", op.name, spec.params, len(op.params))
	}
	for _, v := range op.params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("qasm: gate %q has non-finite parameter", op.name)
		}
	}
	for i := 0; i < len(op.qubits); i++ {
		for j := i + 1; j < len(op.qubits); j++ {
			if op.qubits[i] == op.qubits[j] {
				return fmt.Errorf("qasm: gate %q repeats qubit operand q%d", op.name, op.qubits[i])
			}
		}
	}
	q := op.qubits
	pc := func(idx int) dd.Control { return dd.PosControl(q[idx]) }
	switch op.name {
	case "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "sy", "sydg", "id", "i":
		c.Apply(op.name, nil, q[0])
	case "rx", "ry", "rz", "p", "u1":
		c.Apply(op.name, op.params, q[0])
	case "u2", "u3":
		c.Apply(op.name, op.params, q[0])
	case "u":
		// Normalized to u3 so export/reparse round trips to the same
		// canonical encoding.
		c.Apply("u3", op.params, q[0])
	case "cx":
		c.Apply("x", nil, q[1], pc(0))
	case "cy":
		c.Apply("y", nil, q[1], pc(0))
	case "cz":
		c.Apply("z", nil, q[1], pc(0))
	case "ch":
		c.Apply("h", nil, q[1], pc(0))
	case "cp", "cu1":
		c.Apply("p", op.params, q[1], pc(0))
	case "crz":
		c.Apply("rz", op.params, q[1], pc(0))
	case "ccx":
		c.Apply("x", nil, q[2], pc(0), pc(1))
	case "ccz":
		c.Apply("z", nil, q[2], pc(0), pc(1))
	case "swap":
		c.SWAP(q[0], q[1])
	case "cswap":
		// Fredkin via three Toffolis.
		c.Apply("x", nil, q[2], pc(0), dd.PosControl(q[1]))
		c.Apply("x", nil, q[1], pc(0), dd.PosControl(q[2]))
		c.Apply("x", nil, q[2], pc(0), dd.PosControl(q[1]))
	default:
		return fmt.Errorf("qasm: unsupported gate %q", op.name)
	}
	return nil
}

func (p *parser) cur() token  { return p.tok }
func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

func (p *parser) advance() {
	t, err := p.lex.next()
	if err != nil {
		p.lexErr, t = err, token{kind: tokEOF, line: p.lex.line}
	}
	p.tok = t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("qasm: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expectSymbol(s string) error {
	t := p.cur()
	if (t.kind != tokSymbol && t.kind != tokArrow) || t.text != s {
		return p.errf("expected %q, got %q", s, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) parse() error {
	for !p.atEOF() {
		t := p.cur()
		if t.kind != tokIdent {
			return p.errf("expected statement, got %q", t.text)
		}
		switch t.text {
		case "OPENQASM":
			p.advance()
			if p.cur().kind != tokNumber {
				return p.errf("expected version number")
			}
			p.advance()
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
		case "include":
			p.advance()
			if p.cur().kind != tokString {
				return p.errf("expected include path string")
			}
			p.advance()
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
		case "qreg", "creg":
			if err := p.parseReg(t.text); err != nil {
				return err
			}
		case "barrier":
			p.advance()
			// Skip operand list; barriers map to block boundaries.
			for !p.atEOF() && !(p.cur().kind == tokSymbol && p.cur().text == ";") {
				p.advance()
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
			p.ops = append(p.ops, operation{barrier: true})
		case "measure":
			if err := p.parseMeasure(); err != nil {
				return err
			}
		case "gate", "opaque", "if", "reset":
			return p.errf("unsupported statement %q (custom gates, conditionals and reset are outside the supported subset)", t.text)
		default:
			if err := p.parseGate(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *parser) parseReg(kind string) error {
	p.advance()
	if p.cur().kind != tokIdent {
		return p.errf("expected register name")
	}
	name := p.cur().text
	p.advance()
	if err := p.expectSymbol("["); err != nil {
		return err
	}
	if p.cur().kind != tokNumber {
		return p.errf("expected register size")
	}
	size, err := strconv.Atoi(p.cur().text)
	if err != nil || size <= 0 {
		return p.errf("invalid register size %q", p.cur().text)
	}
	p.advance()
	if err := p.expectSymbol("]"); err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if kind == "qreg" {
		if _, dup := p.qregs[name]; dup {
			return p.errf("duplicate qreg %q", name)
		}
		if size > maxRegisterBits-p.qCount {
			return p.errf("qreg %q pushes the total qubit count past %d", name, maxRegisterBits)
		}
		p.qregs[name] = [2]int{p.qCount, size}
		p.qCount += size
	} else {
		if _, dup := p.cregs[name]; dup {
			return p.errf("duplicate creg %q", name)
		}
		if size > maxRegisterBits-p.cCount {
			return p.errf("creg %q pushes the total bit count past %d", name, maxRegisterBits)
		}
		p.cregs[name] = [2]int{p.cCount, size}
		p.cCount += size
	}
	return nil
}

// maxRegisterBits bounds the total declared qubits/bits; it is far beyond
// anything simulable and exists to keep adversarial register sizes from
// overflowing the flat index space.
const maxRegisterBits = 1 << 20

func (p *parser) parseMeasure() error {
	p.advance()
	q, err := p.parseQubitRef(p.qregs)
	if err != nil {
		return err
	}
	if err := p.expectSymbol("->"); err != nil {
		return err
	}
	cbit, err := p.parseQubitRef(p.cregs)
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	p.ops = append(p.ops, operation{isMeas: true, measure: [2]int{q, cbit}})
	return nil
}

// parseQubitRef parses name[idx] against the given register table and
// returns the flat index.
func (p *parser) parseQubitRef(regs map[string][2]int) (int, error) {
	if p.cur().kind != tokIdent {
		return 0, p.errf("expected register reference")
	}
	name := p.cur().text
	reg, ok := regs[name]
	if !ok {
		return 0, p.errf("unknown register %q", name)
	}
	p.advance()
	if err := p.expectSymbol("["); err != nil {
		return 0, err
	}
	if p.cur().kind != tokNumber {
		return 0, p.errf("expected index")
	}
	idx, err := strconv.Atoi(p.cur().text)
	if err != nil || idx < 0 || idx >= reg[1] {
		return 0, p.errf("index %q out of range for %q", p.cur().text, name)
	}
	p.advance()
	if err := p.expectSymbol("]"); err != nil {
		return 0, err
	}
	return reg[0] + idx, nil
}

func (p *parser) parseGate() error {
	name := p.cur().text
	p.advance()
	var params []float64
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.advance()
		for {
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			params = append(params, v)
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
	}
	var qubits []int
	for {
		q, err := p.parseQubitRef(p.qregs)
		if err != nil {
			return err
		}
		qubits = append(qubits, q)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	p.ops = append(p.ops, operation{name: name, params: params, qubits: qubits})
	return nil
}

// Expression grammar: expr := term (('+'|'-') term)*; term := factor
// (('*'|'/') factor)*; factor := number | pi | '-' factor | '(' expr ')'.
func (p *parser) parseExpr() (float64, error) {
	v, err := p.parseTerm()
	if err != nil {
		return 0, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.cur().text
		p.advance()
		rhs, err := p.parseTerm()
		if err != nil {
			return 0, err
		}
		if op == "+" {
			v += rhs
		} else {
			v -= rhs
		}
	}
	return v, nil
}

func (p *parser) parseTerm() (float64, error) {
	v, err := p.parseFactor()
	if err != nil {
		return 0, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "*" || p.cur().text == "/") {
		op := p.cur().text
		p.advance()
		rhs, err := p.parseFactor()
		if err != nil {
			return 0, err
		}
		if op == "*" {
			v *= rhs
		} else {
			if rhs == 0 {
				return 0, p.errf("division by zero in parameter expression")
			}
			v /= rhs
		}
	}
	return v, nil
}

func (p *parser) parseFactor() (float64, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, p.errf("bad number %q", t.text)
		}
		p.advance()
		return v, nil
	case t.kind == tokIdent && t.text == "pi":
		p.advance()
		return math.Pi, nil
	case t.kind == tokSymbol && t.text == "-":
		p.advance()
		v, err := p.parseFactor()
		return -v, err
	case t.kind == tokSymbol && t.text == "(":
		p.advance()
		v, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		return v, p.expectSymbol(")")
	default:
		return 0, p.errf("unexpected token %q in expression", t.text)
	}
}
