package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// evalExpr evaluates an OpenQASM parameter expression: floating literals,
// the constant pi, unary minus, + - * / ^, and parentheses.
func evalExpr(src string) (float64, error) {
	// A lone literal, perhaps negated, skips the descent below: it would
	// read the same literal and negate it.
	if lit := strings.TrimPrefix(src, "-"); lit != "" && (lit[0] >= '0' && lit[0] <= '9' || lit[0] == '.') && numberLen(lit) == len(lit) {
		v, err := strconv.ParseFloat(lit, 64)
		if len(lit) < len(src) {
			v = -v
		}
		return v, err
	}
	e := &exprParser{src: src}
	v, err := e.parseSum()
	if err != nil {
		return 0, err
	}
	e.skipSpace()
	if e.pos != len(e.src) {
		return 0, fmt.Errorf("trailing input at %q", e.src[e.pos:])
	}
	return v, nil
}

type exprParser struct {
	src string
	pos int
}

func (e *exprParser) skipSpace() {
	for e.pos < len(e.src) && (e.src[e.pos] == ' ' || e.src[e.pos] == '\t') {
		e.pos++
	}
}

func (e *exprParser) peek() byte {
	e.skipSpace()
	if e.pos >= len(e.src) {
		return 0
	}
	return e.src[e.pos]
}

func (e *exprParser) parseSum() (float64, error) {
	v, err := e.parseProduct()
	if err != nil {
		return 0, err
	}
	for {
		switch e.peek() {
		case '+':
			e.pos++
			w, err := e.parseProduct()
			if err != nil {
				return 0, err
			}
			v += w
		case '-':
			e.pos++
			w, err := e.parseProduct()
			if err != nil {
				return 0, err
			}
			v -= w
		default:
			return v, nil
		}
	}
}

func (e *exprParser) parseProduct() (float64, error) {
	v, err := e.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		switch e.peek() {
		case '*':
			e.pos++
			w, err := e.parseUnary()
			if err != nil {
				return 0, err
			}
			v *= w
		case '/':
			e.pos++
			w, err := e.parseUnary()
			if err != nil {
				return 0, err
			}
			if w == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v /= w
		default:
			return v, nil
		}
	}
}

func (e *exprParser) parseUnary() (float64, error) {
	switch e.peek() {
	case '-':
		e.pos++
		v, err := e.parseUnary()
		return -v, err
	case '+':
		e.pos++
		return e.parseUnary()
	}
	return e.parsePower()
}

func (e *exprParser) parsePower() (float64, error) {
	v, err := e.parseAtom()
	if err != nil {
		return 0, err
	}
	if e.peek() == '^' {
		e.pos++
		w, err := e.parseUnary()
		if err != nil {
			return 0, err
		}
		return math.Pow(v, w), nil
	}
	return v, nil
}

func (e *exprParser) parseAtom() (float64, error) {
	c := e.peek()
	switch {
	case c == '(':
		e.pos++
		v, err := e.parseSum()
		if err != nil {
			return 0, err
		}
		if e.peek() != ')' {
			return 0, fmt.Errorf("missing closing parenthesis")
		}
		e.pos++
		return v, nil
	case c >= '0' && c <= '9' || c == '.':
		lit := e.src[e.pos : e.pos+numberLen(e.src[e.pos:])]
		e.pos += len(lit)
		return strconv.ParseFloat(lit, 64)
	case c == 'p' || c == 'P':
		if strings.HasPrefix(strings.ToLower(e.src[e.pos:]), "pi") {
			e.pos += 2
			return math.Pi, nil
		}
		return 0, fmt.Errorf("unknown identifier at %q", e.src[e.pos:])
	case c == 0:
		return 0, fmt.Errorf("unexpected end of expression")
	default:
		return 0, fmt.Errorf("unexpected character %q", string(c))
	}
}

// numberLen is the length of the numeric literal that starts s: digits,
// '.', 'e' and 'E', and a sign right after an exponent mark.
func numberLen(s string) int {
	for i, c := range []byte(s) {
		if !(c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' ||
			(c == '+' || c == '-') && i > 0 && (s[i-1] == 'e' || s[i-1] == 'E')) {
			return i
		}
	}
	return len(s)
}
