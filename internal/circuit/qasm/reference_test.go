package qasm

// The reference parser: Parse and its expression evaluator as they stood
// before the one-pass scanner, splitting on ';' after stripping comments,
// with one fix (the circuit exists as soon as a register does: at a
// barrier, a gate, or the end of input). It is kept verbatim otherwise so
// FuzzParseMatchesReference can hold the scanner to the same language, the
// same errors and the same Ops.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"weaksim/internal/circuit"
	"weaksim/internal/gate"
)

func refParse(src, name string) (*circuit.Circuit, error) {
	p := &refParser{name: name, regs: map[string]refQreg{}}
	if err := p.run(src); err != nil {
		return nil, err
	}
	p.ensureCirc()
	if p.circ == nil {
		return nil, fmt.Errorf("qasm: no quantum registers declared")
	}
	return p.circ, nil
}

type refQreg struct {
	offset, size int
}

type refParser struct {
	name   string
	regs   map[string]refQreg
	width  int
	circ   *circuit.Circuit
	sawHdr bool
	line   int
}

func (p *refParser) errf(format string, args ...any) error {
	return fmt.Errorf("qasm:%d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *refParser) run(src string) error {
	// Strip comments, then split on ';'. OpenQASM 2.0 statements are
	// semicolon-terminated, so this is a faithful statement splitter.
	var clean strings.Builder
	for _, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	stmts := strings.Split(clean.String(), ";")
	p.line = 0
	for _, stmt := range stmts {
		p.line += strings.Count(stmt, "\n")
		s := strings.TrimSpace(strings.ReplaceAll(stmt, "\n", " "))
		if s == "" {
			continue
		}
		if err := p.statement(s); err != nil {
			return err
		}
	}
	return nil
}

func (p *refParser) statement(s string) error {
	switch {
	case strings.HasPrefix(s, "OPENQASM"):
		ver := strings.TrimSpace(strings.TrimPrefix(s, "OPENQASM"))
		if ver != "2.0" {
			return p.errf("unsupported OPENQASM version %q", ver)
		}
		p.sawHdr = true
		return nil
	case strings.HasPrefix(s, "include"):
		// The qelib1 gate set is built in, so includes are not read — but
		// the statement must still be well-formed: a quoted file name.
		arg := strings.TrimSpace(strings.TrimPrefix(s, "include"))
		if len(arg) < 2 || arg[0] != '"' || arg[len(arg)-1] != '"' {
			return p.errf(`malformed include %q: want include "file"`, arg)
		}
		return nil
	case strings.HasPrefix(s, "qreg "):
		return p.declare(strings.TrimPrefix(s, "qreg "))
	case strings.HasPrefix(s, "creg "):
		return nil // classical registers are irrelevant to weak simulation
	case strings.HasPrefix(s, "measure ") || strings.HasPrefix(s, "measure\t"):
		return nil // measurement of all qubits is implicit
	case strings.HasPrefix(s, "barrier"):
		p.ensureCirc()
		if p.circ != nil {
			p.circ.Barrier()
		}
		return nil
	default:
		return p.gateStatement(s)
	}
}

func (p *refParser) declare(decl string) error {
	name, size, err := refRegRef(decl)
	if err != nil {
		return p.errf("bad qreg declaration %q: %v", decl, err)
	}
	if size < 1 {
		return p.errf("qreg %s has non-positive size %d", name, size)
	}
	if _, dup := p.regs[name]; dup {
		return p.errf("duplicate register %q", name)
	}
	if p.circ != nil {
		return p.errf("all qreg declarations must precede gates")
	}
	p.regs[name] = refQreg{offset: p.width, size: size}
	p.width += size
	return nil
}

// ensureCirc lazily creates the circuit once a register exists, at the
// first gate or barrier or at the end of input, fixing the total width.
func (p *refParser) ensureCirc() {
	if p.circ == nil && p.width > 0 {
		p.circ = circuit.New(p.width, p.name)
	}
}

var refGateTable = map[string]gate.Gate{
	"id": gate.IDGate, "x": gate.XGate, "y": gate.YGate, "z": gate.ZGate,
	"h": gate.HGate, "s": gate.SGate, "sdg": gate.SdgGate,
	"t": gate.TGate, "tdg": gate.TdgGate, "sx": gate.SXGate, "sy": gate.SYGate,
}

func (p *refParser) gateStatement(s string) error {
	p.ensureCirc()
	if p.circ == nil {
		return p.errf("gate before any qreg declaration: %q", s)
	}
	mnemonic, params, operands, err := refSplitGate(s)
	if err != nil {
		return p.errf("%v", err)
	}
	qubits := make([]int, len(operands))
	seen := make(map[int]bool, len(operands))
	for i, op := range operands {
		q, err := p.resolve(op)
		if err != nil {
			return p.errf("%v", err)
		}
		if seen[q] {
			return p.errf("qubit %s used twice in %q", op, s)
		}
		seen[q] = true
		qubits[i] = q
	}
	angles := make([]float64, len(params))
	for i, expr := range params {
		v, err := refEvalExpr(expr)
		if err != nil {
			return p.errf("bad parameter %q: %v", expr, err)
		}
		angles[i] = v
	}
	return p.applyGate(mnemonic, angles, qubits)
}

func (p *refParser) applyGate(mnemonic string, angles []float64, q []int) error {
	need := func(nq, na int) error {
		if len(q) != nq || len(angles) != na {
			return p.errf("%s expects %d qubits and %d parameters, got %d and %d",
				mnemonic, nq, na, len(q), len(angles))
		}
		return nil
	}
	if g, ok := refGateTable[mnemonic]; ok {
		if err := need(1, 0); err != nil {
			return err
		}
		p.circ.Apply(g, q[0])
		return nil
	}
	switch mnemonic {
	case "rx", "ry", "rz", "p", "u1":
		if err := need(1, 1); err != nil {
			return err
		}
		switch mnemonic {
		case "rx":
			p.circ.RX(angles[0], q[0])
		case "ry":
			p.circ.RY(angles[0], q[0])
		case "rz":
			p.circ.RZ(angles[0], q[0])
		default:
			p.circ.P(angles[0], q[0])
		}
	case "u", "u3":
		if err := need(1, 3); err != nil {
			return err
		}
		p.circ.Apply(gate.UGate(angles[0], angles[1], angles[2]), q[0])
	case "u2":
		if err := need(1, 2); err != nil {
			return err
		}
		p.circ.Apply(gate.UGate(math.Pi/2, angles[0], angles[1]), q[0])
	case "cx", "CX":
		if err := need(2, 0); err != nil {
			return err
		}
		p.circ.CX(q[0], q[1])
	case "cz":
		if err := need(2, 0); err != nil {
			return err
		}
		p.circ.CZ(q[0], q[1])
	case "cy":
		if err := need(2, 0); err != nil {
			return err
		}
		p.circ.Apply(gate.YGate, q[1], gate.Pos(q[0]))
	case "ch":
		if err := need(2, 0); err != nil {
			return err
		}
		p.circ.Apply(gate.HGate, q[1], gate.Pos(q[0]))
	case "cp", "cu1":
		if err := need(2, 1); err != nil {
			return err
		}
		p.circ.CP(angles[0], q[0], q[1])
	case "crx":
		if err := need(2, 1); err != nil {
			return err
		}
		p.circ.Apply(gate.RXGate(angles[0]), q[1], gate.Pos(q[0]))
	case "cry":
		if err := need(2, 1); err != nil {
			return err
		}
		p.circ.Apply(gate.RYGate(angles[0]), q[1], gate.Pos(q[0]))
	case "crz":
		if err := need(2, 1); err != nil {
			return err
		}
		p.circ.Apply(gate.RZGate(angles[0]), q[1], gate.Pos(q[0]))
	case "swap":
		if err := need(2, 0); err != nil {
			return err
		}
		p.circ.Swap(q[0], q[1])
	case "ccx":
		if err := need(3, 0); err != nil {
			return err
		}
		p.circ.CCX(q[0], q[1], q[2])
	case "ccz":
		if err := need(3, 0); err != nil {
			return err
		}
		p.circ.Apply(gate.ZGate, q[2], gate.Pos(q[0]), gate.Pos(q[1]))
	case "cswap":
		if err := need(3, 0); err != nil {
			return err
		}
		// Controlled swap via three Toffolis.
		p.circ.CCX(q[0], q[1], q[2])
		p.circ.CCX(q[0], q[2], q[1])
		p.circ.CCX(q[0], q[1], q[2])
	default:
		return p.errf("unsupported gate %q", mnemonic)
	}
	return nil
}

// resolve maps "reg[i]" to an absolute qubit index.
func (p *refParser) resolve(ref string) (int, error) {
	name, idx, err := refRegRef(ref)
	if err != nil {
		return 0, fmt.Errorf("bad qubit reference %q: %v", ref, err)
	}
	reg, ok := p.regs[name]
	if !ok {
		return 0, fmt.Errorf("unknown register %q", name)
	}
	if idx < 0 || idx >= reg.size {
		return 0, fmt.Errorf("index %d out of range for register %s[%d]", idx, name, reg.size)
	}
	return reg.offset + idx, nil
}

// refRegRef splits "name[k]" into its parts.
func refRegRef(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '[')
	if open < 1 || !strings.HasSuffix(s, "]") {
		return "", 0, fmt.Errorf("want name[index]")
	}
	idx, err := strconv.Atoi(s[open+1 : len(s)-1])
	if err != nil {
		return "", 0, err
	}
	return strings.TrimSpace(s[:open]), idx, nil
}

// refSplitGate splits "name(p1,p2) a[0],b[1]" into mnemonic, parameter
// expressions, and operand references.
func refSplitGate(s string) (mnemonic string, params, operands []string, err error) {
	s = strings.TrimSpace(s)
	head := s
	rest := ""
	if open := strings.IndexByte(s, '('); open >= 0 {
		depth := 0
		closeAt := -1
		for i := open; i < len(s); i++ {
			switch s[i] {
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 {
					closeAt = i
				}
			}
			if closeAt >= 0 {
				break
			}
		}
		if closeAt < 0 {
			return "", nil, nil, fmt.Errorf("unbalanced parentheses in %q", s)
		}
		head = strings.TrimSpace(s[:open])
		for _, part := range refSplitTop(s[open+1:closeAt], ',') {
			params = append(params, strings.TrimSpace(part))
		}
		rest = s[closeAt+1:]
	} else {
		fields := strings.SplitN(s, " ", 2)
		head = fields[0]
		if len(fields) == 2 {
			rest = fields[1]
		}
	}
	mnemonic = head
	for _, op := range strings.Split(rest, ",") {
		op = strings.TrimSpace(op)
		if op != "" {
			operands = append(operands, op)
		}
	}
	if mnemonic == "" || len(operands) == 0 {
		return "", nil, nil, fmt.Errorf("malformed gate statement %q", s)
	}
	return mnemonic, params, operands, nil
}

// refSplitTop splits on sep at parenthesis depth zero.
func refSplitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// refEvalExpr evaluates an OpenQASM parameter expression: floating literals,
// the constant pi, unary minus, + - * / ^, and parentheses.
func refEvalExpr(src string) (float64, error) {
	e := &refExprParser{src: src}
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

type refExprParser struct {
	src string
	pos int
}

func (e *refExprParser) skipSpace() {
	for e.pos < len(e.src) && (e.src[e.pos] == ' ' || e.src[e.pos] == '\t') {
		e.pos++
	}
}

func (e *refExprParser) peek() byte {
	e.skipSpace()
	if e.pos >= len(e.src) {
		return 0
	}
	return e.src[e.pos]
}

func (e *refExprParser) parseSum() (float64, error) {
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

func (e *refExprParser) parseProduct() (float64, error) {
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

func (e *refExprParser) parseUnary() (float64, error) {
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

func (e *refExprParser) parsePower() (float64, error) {
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

func (e *refExprParser) parseAtom() (float64, error) {
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
		start := e.pos
		for e.pos < len(e.src) {
			c := e.src[e.pos]
			if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' {
				e.pos++
				continue
			}
			// Exponent sign.
			if (c == '+' || c == '-') && e.pos > start &&
				(e.src[e.pos-1] == 'e' || e.src[e.pos-1] == 'E') {
				e.pos++
				continue
			}
			break
		}
		return strconv.ParseFloat(e.src[start:e.pos], 64)
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
