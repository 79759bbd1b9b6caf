package qasm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/gen"
)

// This file keeps the parser as it stood before the single-pass front end
// (rune predicates per byte, a string allocated per symbol token, and an
// operation list with two fresh slices per gate, replayed through
// circuit.Apply once the source is read) as a test oracle: FuzzQASMParse
// and TestParseMatchesOracle require Parse to agree with oldParse on the
// canonical circuit encoding, the registers, the measurements and the
// error text of every input. Its gate vocabulary follows circuit's: it
// also takes the phase spelling the parser gained from circuit's alias
// table.

// checkMatchesOracle fails t unless Parse and oldParse agree on src: the
// same error text, or the same canonical circuit encoding, registers and
// measurements.
func checkMatchesOracle(t *testing.T, src string) {
	t.Helper()
	got, err := Parse(src, "p")
	want, wantErr := oldParse(src, "p")
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("error %v, oracle %v\nsource:\n%s", err, wantErr, src)
		}
		return
	}
	if a, b := got.Circuit.AppendCanonical(nil), want.Circuit.AppendCanonical(nil); !bytes.Equal(a, b) {
		t.Fatalf("canonical encoding differs from the oracle's\nsource:\n%s", src)
	}
	if !reflect.DeepEqual(got.Registers, want.Registers) {
		t.Fatalf("registers %v, oracle %v", got.Registers, want.Registers)
	}
	if !reflect.DeepEqual(got.Measurements, want.Measurements) {
		t.Fatalf("measurements %v, oracle %v", got.Measurements, want.Measurements)
	}
}

// TestParseMatchesOracle runs the oracle comparison over the export of
// every gen family at 10-16 qubits, with widths and arguments drawn from a
// fixed seed. W-state and Grover circuits are left out: their gates are not
// expressible in plain OpenQASM 2.0, so Export rejects them.
func TestParseMatchesOracle(t *testing.T) {
	// Each spec takes the width n as %[1]d, a seed or bit mask below 2^10
	// as %[2]d, n/3 (the adder's operand width) as %[3]d and 3 or 4 (the
	// 4-row supremacy grid's columns) as %[4]d.
	specs := []string{
		"qft:%[1]d", "iqft:%[1]d", "ghz:%[1]d", "bv:%[1]d:%[2]d", "dj:%[1]d:%[2]d",
		"qpe:%[1]d:%[2]d:1024", "adder:%[3]d:%[2]d:%[2]d", "random:%[1]d:300:%[2]d",
		"qaoa:%[1]d:2:%[2]d", "vqe:%[1]d:2:linear:%[2]d", "cliffordt:%[1]d:400:8:%[2]d",
		"qsup:4x%[4]d:12:%[2]d",
	}
	rng := rand.New(rand.NewSource(28))
	seen := make(map[string]bool)
	for _, format := range specs {
		for rep := 0; rep < 3; rep++ {
			n := 10 + rng.Intn(7)
			spec := fmt.Sprintf(format, n, rng.Intn(1<<10), n/3, 3+n%2)
			if seen[spec] {
				continue // a spec without a seed can repeat; run it once
			}
			seen[spec] = true
			c, err := gen.FromSpec(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			src, err := Export(c)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			t.Run(spec, func(t *testing.T) { checkMatchesOracle(t, src) })
		}
	}
}

type oldTokenKind int

const (
	oldTokEOF oldTokenKind = iota
	oldTokIdent
	oldTokNumber
	oldTokString
	oldTokSymbol // single-character punctuation: ; , ( ) [ ] { } + - * / ->(arrow handled as two)
	oldTokArrow  // ->
)

type oldToken struct {
	kind oldTokenKind
	text string
	line int
}

type oldLexer struct {
	src  string
	pos  int
	line int
}

func newOldLexer(src string) *oldLexer { return &oldLexer{src: src, line: 1} }

func (l *oldLexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("qasm: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *oldLexer) next() (oldToken, error) {
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		switch {
		case ch == '\n':
			l.line++
			l.pos++
		case ch == ' ' || ch == '\t' || ch == '\r':
			l.pos++
		case ch == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return oldToken{kind: oldTokEOF, line: l.line}, nil

scan:
	ch := l.src[l.pos]
	start := l.pos
	switch {
	case oldIsIdentStart(rune(ch)):
		for l.pos < len(l.src) && oldIsIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return oldToken{kind: oldTokIdent, text: l.src[start:l.pos], line: l.line}, nil
	case ch >= '0' && ch <= '9' || ch == '.':
		seenDot := false
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c == '.' {
				if seenDot {
					break
				}
				seenDot = true
				l.pos++
			} else if c >= '0' && c <= '9' {
				l.pos++
			} else if c == 'e' || c == 'E' {
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
			} else {
				break
			}
		}
		return oldToken{kind: oldTokNumber, text: l.src[start:l.pos], line: l.line}, nil
	case ch == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return oldToken{}, l.errf("unterminated string")
		}
		text := l.src[start+1 : l.pos]
		l.pos++
		return oldToken{kind: oldTokString, text: text, line: l.line}, nil
	case ch == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return oldToken{kind: oldTokArrow, text: "->", line: l.line}, nil
	case strings.ContainsRune(";,()[]{}+-*/=<>", rune(ch)):
		l.pos++
		return oldToken{kind: oldTokSymbol, text: string(ch), line: l.line}, nil
	default:
		return oldToken{}, l.errf("unexpected character %q", ch)
	}
}

func oldIsIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func oldIsIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// oldParser pulls tokens from the lexer one at a time; the grammar needs no
// lookahead past the current token.
type oldParser struct {
	lex    *oldLexer
	tok    oldToken
	lexErr error // first lexing error; the token stream ends there

	qregs  map[string][2]int
	cregs  map[string][2]int
	qCount int
	cCount int

	ops []oldOperation
}

type oldOperation struct {
	name    string
	params  []float64
	qubits  []int
	measure [2]int
	isMeas  bool
	barrier bool
}

// oldParse converts QASM source into a Program.
func oldParse(src, name string) (*Program, error) {
	p := &oldParser{
		lex:   newOldLexer(src),
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
			if err := oldApplyOp(c, op); err != nil {
				return nil, err
			}
		}
	}
	return prog, nil
}

// oldGateSpec fixes the operand and parameter arity of every supported gate, so
// malformed statements become parse errors instead of panics deeper in the
// circuit builder.
var oldGateSpec = map[string]struct{ qubits, params int }{
	"x": {1, 0}, "y": {1, 0}, "z": {1, 0}, "h": {1, 0}, "s": {1, 0},
	"sdg": {1, 0}, "t": {1, 0}, "tdg": {1, 0}, "sx": {1, 0}, "sxdg": {1, 0},
	"sy": {1, 0}, "sydg": {1, 0}, "id": {1, 0}, "i": {1, 0},
	"rx": {1, 1}, "ry": {1, 1}, "rz": {1, 1}, "p": {1, 1}, "u1": {1, 1}, "phase": {1, 1},
	"u2": {1, 2}, "u3": {1, 3}, "u": {1, 3},
	"cx": {2, 0}, "cy": {2, 0}, "cz": {2, 0}, "ch": {2, 0},
	"cp": {2, 1}, "cu1": {2, 1}, "crz": {2, 1},
	"ccx": {3, 0}, "ccz": {3, 0},
	"swap": {2, 0}, "cswap": {3, 0},
}

func oldApplyOp(c *circuit.Circuit, op oldOperation) error {
	spec, ok := oldGateSpec[op.name]
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
	case "rx", "ry", "rz", "p", "u1", "phase":
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

func (p *oldParser) cur() oldToken { return p.tok }
func (p *oldParser) atEOF() bool   { return p.tok.kind == oldTokEOF }

func (p *oldParser) advance() {
	t, err := p.lex.next()
	if err != nil {
		p.lexErr, t = err, oldToken{kind: oldTokEOF, line: p.lex.line}
	}
	p.tok = t
}

func (p *oldParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("qasm: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *oldParser) expectSymbol(s string) error {
	t := p.cur()
	if (t.kind != oldTokSymbol && t.kind != oldTokArrow) || t.text != s {
		return p.errf("expected %q, got %q", s, t.text)
	}
	p.advance()
	return nil
}

func (p *oldParser) parse() error {
	for !p.atEOF() {
		t := p.cur()
		if t.kind != oldTokIdent {
			return p.errf("expected statement, got %q", t.text)
		}
		switch t.text {
		case "OPENQASM":
			p.advance()
			if p.cur().kind != oldTokNumber {
				return p.errf("expected version number")
			}
			p.advance()
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
		case "include":
			p.advance()
			if p.cur().kind != oldTokString {
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
			for !p.atEOF() && !(p.cur().kind == oldTokSymbol && p.cur().text == ";") {
				p.advance()
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
			p.ops = append(p.ops, oldOperation{barrier: true})
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

func (p *oldParser) parseReg(kind string) error {
	p.advance()
	if p.cur().kind != oldTokIdent {
		return p.errf("expected register name")
	}
	name := p.cur().text
	p.advance()
	if err := p.expectSymbol("["); err != nil {
		return err
	}
	if p.cur().kind != oldTokNumber {
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
		if size > oldMaxRegisterBits-p.qCount {
			return p.errf("qreg %q pushes the total qubit count past %d", name, oldMaxRegisterBits)
		}
		p.qregs[name] = [2]int{p.qCount, size}
		p.qCount += size
	} else {
		if _, dup := p.cregs[name]; dup {
			return p.errf("duplicate creg %q", name)
		}
		if size > oldMaxRegisterBits-p.cCount {
			return p.errf("creg %q pushes the total bit count past %d", name, oldMaxRegisterBits)
		}
		p.cregs[name] = [2]int{p.cCount, size}
		p.cCount += size
	}
	return nil
}

// maxRegisterBits bounds the total declared qubits/bits; it is far beyond
// anything simulable and exists to keep adversarial register sizes from
// overflowing the flat index space.
const oldMaxRegisterBits = 1 << 20

func (p *oldParser) parseMeasure() error {
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
	p.ops = append(p.ops, oldOperation{isMeas: true, measure: [2]int{q, cbit}})
	return nil
}

// parseQubitRef parses name[idx] against the given register table and
// returns the flat index.
func (p *oldParser) parseQubitRef(regs map[string][2]int) (int, error) {
	if p.cur().kind != oldTokIdent {
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
	if p.cur().kind != oldTokNumber {
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

func (p *oldParser) parseGate() error {
	name := p.cur().text
	p.advance()
	var params []float64
	if p.cur().kind == oldTokSymbol && p.cur().text == "(" {
		p.advance()
		for {
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			params = append(params, v)
			if p.cur().kind == oldTokSymbol && p.cur().text == "," {
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
		if p.cur().kind == oldTokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	p.ops = append(p.ops, oldOperation{name: name, params: params, qubits: qubits})
	return nil
}

// Expression grammar: expr := term (('+'|'-') term)*; term := factor
// (('*'|'/') factor)*; factor := number | pi | '-' factor | '(' expr ')'.
func (p *oldParser) parseExpr() (float64, error) {
	v, err := p.parseTerm()
	if err != nil {
		return 0, err
	}
	for p.cur().kind == oldTokSymbol && (p.cur().text == "+" || p.cur().text == "-") {
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

func (p *oldParser) parseTerm() (float64, error) {
	v, err := p.parseFactor()
	if err != nil {
		return 0, err
	}
	for p.cur().kind == oldTokSymbol && (p.cur().text == "*" || p.cur().text == "/") {
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

func (p *oldParser) parseFactor() (float64, error) {
	t := p.cur()
	switch {
	case t.kind == oldTokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, p.errf("bad number %q", t.text)
		}
		p.advance()
		return v, nil
	case t.kind == oldTokIdent && t.text == "pi":
		p.advance()
		return math.Pi, nil
	case t.kind == oldTokSymbol && t.text == "-":
		p.advance()
		v, err := p.parseFactor()
		return -v, err
	case t.kind == oldTokSymbol && t.text == "(":
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
