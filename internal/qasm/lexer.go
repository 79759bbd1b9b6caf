package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // single-character punctuation: ; , ( ) [ ] { } + - * / ->(arrow handled as two)
	tokArrow  // ->
)

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

// Classes of byteClass.
const (
	classIdentStart = 1 << iota // letter or '_'
	classIdentPart              // letter, digit or '_'
	classSymbol                 // one-byte punctuation token
)

// byteClass classifies each byte by rune predicates on the byte read as a
// rune, so bytes >= 0x80 classify as the Latin-1 code points they name.
var byteClass = func() (t [256]uint8) {
	for i := range t {
		r := rune(i)
		if unicode.IsLetter(r) || r == '_' {
			t[i] |= classIdentStart | classIdentPart
		}
		if unicode.IsDigit(r) {
			t[i] |= classIdentPart
		}
		if strings.ContainsRune(";,()[]{}+-*/=<>", r) {
			t[i] |= classSymbol
		}
	}
	return t
}()

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("qasm: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
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
	return token{kind: tokEOF, line: l.line}, nil

scan:
	ch := l.src[l.pos]
	start := l.pos
	switch {
	case byteClass[ch]&classIdentStart != 0:
		for l.pos < len(l.src) && byteClass[l.src[l.pos]]&classIdentPart != 0 {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: l.line}, nil
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
		return token{kind: tokNumber, text: l.src[start:l.pos], line: l.line}, nil
	case ch == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated string")
		}
		text := l.src[start+1 : l.pos]
		l.pos++
		return token{kind: tokString, text: text, line: l.line}, nil
	case ch == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return token{kind: tokArrow, text: "->", line: l.line}, nil
	case byteClass[ch]&classSymbol != 0:
		l.pos++
		return token{kind: tokSymbol, text: l.src[start:l.pos], line: l.line}, nil
	default:
		return token{}, l.errf("unexpected character %q", ch)
	}
}
