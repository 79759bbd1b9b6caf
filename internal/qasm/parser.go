package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

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

// parser pulls tokens from the lexer one at a time (the grammar needs no
// lookahead past the current token) and appends each gate statement's
// expansion to the circuit as soon as it is read.
type parser struct {
	lex    lexer
	tok    token
	lexErr error // first lexing error; the token stream ends there

	qregs  map[string][2]int
	cregs  map[string][2]int
	qCount int
	cCount int

	// c, named name, is created at the first qreg and widened at every
	// later one: a gate names only qubits declared before it, so each
	// Append sees its qubits in range. gateErr is the first gate the
	// circuit cannot take, reported only if nothing outranks it.
	name    string
	c       *circuit.Circuit
	meas    [][2]int
	gateErr error

	// qubits and params hold the current statement's operands. Every
	// gate's Controls and Params are cut from ctlSlab and paramSlab with
	// full-slice expressions, so an append through one gate's slice
	// reallocates instead of overwriting its neighbour's.
	qubits    []int
	params    []float64
	ctlSlab   []dd.Control
	paramSlab []float64
}

// Parse converts QASM source into a Program.
func Parse(src, name string) (*Program, error) {
	p := &parser{
		lex:   lexer{src: src, line: 1},
		qregs: map[string][2]int{},
		cregs: map[string][2]int{},
		name:  name,
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
	if p.gateErr != nil {
		return nil, p.gateErr
	}
	return &Program{Circuit: p.c, Registers: p.qregs, Measurements: p.meas}, nil
}

// spelling is the one table of multi-qubit QASM gates, read by Parse and
// Export alike. It maps a gate onto its circuit base gate with the leading
// qubits-1 operands as positive controls, or, with no base, onto a swap of
// the last two operands under the others, expanded to three x gates.
// Export spells a gate under k controls as k c's before its name, so cu1
// parses but exports as cp. Single-qubit gates keep their circuit names,
// aliases included. (A switch, not a map: Parse reads it per statement.)
func spelling(name string) (base string, qubits int, ok bool) {
	switch name {
	case "cx", "cy", "cz", "ch", "cp", "crz":
		return name[1:], 2, true
	case "cu1":
		return "p", 2, true
	case "ccx", "ccz":
		return name[2:], 3, true
	case "swap":
		return "", 2, true
	case "cswap":
		return "", 3, true
	}
	return "", 0, false
}

// emit validates the gate statement just read (its operands in p.qubits
// and p.params) and appends its expansion to the circuit.
func (p *parser) emit(name string) error {
	base, nq := name, 1
	np, ok := circuit.GateParams(name)
	if !ok {
		if base, nq, ok = spelling(name); !ok {
			return fmt.Errorf("qasm: unsupported gate %q", name)
		}
		np, _ = circuit.GateParams(base)
	}
	q := p.qubits
	if len(q) != nq {
		return fmt.Errorf("qasm: gate %q takes %d qubit operand(s), got %d", name, nq, len(q))
	}
	if len(p.params) != np {
		return fmt.Errorf("qasm: gate %q takes %d parameter(s), got %d", name, np, len(p.params))
	}
	for _, v := range p.params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("qasm: gate %q has non-finite parameter", name)
		}
	}
	for i := 0; i < len(q); i++ {
		for j := i + 1; j < len(q); j++ {
			if q[i] == q[j] {
				return fmt.Errorf("qasm: gate %q repeats qubit operand q%d", name, q[i])
			}
		}
	}
	switch {
	case base != "":
		p.add(base, q[len(q)-1], q[:len(q)-1]...)
	case len(q) == 2:
		// Three CNOTs, as circuit.SWAP builds it.
		p.add("x", q[1], q[0])
		p.add("x", q[0], q[1])
		p.add("x", q[1], q[0])
	default:
		// Fredkin via three Toffolis.
		p.add("x", q[2], q[0], q[1])
		p.add("x", q[1], q[0], q[2])
		p.add("x", q[2], q[0], q[1])
	}
	return nil
}

// add appends one unitary gate on target with positive controls ctls,
// taking the statement's parameters.
func (p *parser) add(name string, target int, ctls ...int) {
	g := circuit.Gate{Kind: circuit.KindUnitary, Name: name, Target: target}
	if len(p.params) > 0 {
		at := len(p.paramSlab)
		p.paramSlab = append(p.paramSlab, p.params...)
		g.Params = p.paramSlab[at:len(p.paramSlab):len(p.paramSlab)]
	}
	if len(ctls) > 0 {
		at := len(p.ctlSlab)
		for _, q := range ctls {
			p.ctlSlab = append(p.ctlSlab, dd.PosControl(q))
		}
		g.Controls = p.ctlSlab[at:len(p.ctlSlab):len(p.ctlSlab)]
	}
	p.c.Append(&g)
}

func (p *parser) cur() token  { return p.tok }
func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

// isSymbol reports whether the current token is the punctuation s.
func (p *parser) isSymbol(s string) bool { return p.tok.kind == tokSymbol && p.tok.text == s }

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
			for !p.atEOF() && !p.isSymbol(";") {
				p.advance()
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
			if p.c != nil && p.gateErr == nil {
				p.c.EndBlock()
			}
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
		if p.c == nil {
			p.c = circuit.New(p.qCount, p.name)
			p.c.Grow(statementBound(p.lex.src))
		}
		p.c.NumQubits = p.qCount
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

// statementBound estimates the gate count of src for presizing: one gate
// per ';' outside a // comment, barring the multi-gate swap and cswap
// expansions and the statements that are not gates. The source is
// untrusted, so the estimate never exceeds one gate per len("h q[0];")
// bytes: ';' in comments reserve nothing, and a run of bare ';' (a parse
// error) reserves no more than a valid source of its length would fill.
// An underestimate only costs append its doubling.
func statementBound(src string) int {
	limit := len(src) / len("h q[0];")
	n := 0
	for n < limit {
		i := strings.Index(src, "//")
		if i < 0 {
			n += strings.Count(src, ";")
			break
		}
		n += strings.Count(src[:i], ";")
		j := strings.IndexByte(src[i:], '\n')
		if j < 0 {
			break
		}
		src = src[i+j+1:]
	}
	return min(n, limit)
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
	p.meas = append(p.meas, [2]int{q, cbit})
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
	p.params = p.params[:0]
	if p.isSymbol("(") {
		p.advance()
		for {
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			p.params = append(p.params, v)
			if p.isSymbol(",") {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
	}
	p.qubits = p.qubits[:0]
	for {
		q, err := p.parseQubitRef(p.qregs)
		if err != nil {
			return err
		}
		p.qubits = append(p.qubits, q)
		if p.isSymbol(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if p.gateErr == nil {
		p.gateErr = p.emit(name)
	}
	return nil
}

// Expression grammar: expr := term (('+'|'-') term)*; term := factor
// (('*'|'/') factor)*; factor := number | pi | '-' factor | '(' expr ')'.
func (p *parser) parseExpr() (float64, error) {
	v, err := p.parseTerm()
	if err != nil {
		return 0, err
	}
	for p.isSymbol("+") || p.isSymbol("-") {
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
	for p.isSymbol("*") || p.isSymbol("/") {
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
