// Package qasm reads and writes a practical subset of OpenQASM 2.0, the
// interchange format used by most quantum toolchains. It covers the gate
// set produced by this repository's generators (including controlled
// rotations) plus the common qelib1 one- and two-qubit gates; classical
// registers and measurements are parsed and ignored (measurement of the
// full register is implicit in weak simulation).
package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"weaksim/internal/circuit"
	"weaksim/internal/gate"
)

// Parse converts OpenQASM 2.0 source into a circuit. All quantum registers
// are concatenated in declaration order; qubit q of register r maps to
// offset(r)+q. A program that declares a register but applies no gate is
// an empty circuit of that width.
func Parse(src, name string) (*circuit.Circuit, error) {
	// Every op-making statement ends in ';' and spends at least 7 bytes
	// ("x a[0];"), so this presizes Ops without trusting a run of bare ';'.
	p := &parser{name: name, regs: map[string]qreg{}, ops: min(strings.Count(src, ";"), len(src)/7)}
	if err := p.run(src); err != nil {
		return nil, err
	}
	p.ensureCirc()
	if p.circ == nil {
		return nil, fmt.Errorf("qasm: no quantum registers declared")
	}
	return p.circ, nil
}

type qreg struct {
	offset, size int
}

type parser struct {
	name  string
	regs  map[string]qreg
	width int
	ops   int // capacity to presize Ops with
	circ  *circuit.Circuit
	line  int
	slab  []gate.Control

	// The last register and gate looked up (a failed lookup ends the
	// parse): runs of one register and of one gate are the common case.
	lastName, lastGate string
	last               qreg
	lastForm           gateForm
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("qasm:%d: %s", p.line, fmt.Sprintf(format, args...))
}

// scanClass sorts source bytes for run: the bytes it acts on map to
// themselves, ASCII white space to ' ', and statement content to 0.
var scanClass = [256]byte{'\n': '\n', '/': '/', ';': ';', ' ': ' ', '\t': ' ', '\r': ' ', '\v': ' ', '\f': ' '}

// run scans src once. A statement is the text up to a ';', with comments
// ("//" to the end of the line) removed, newlines read as spaces and the
// ends trimmed; it is a substring of src unless a newline or comment falls
// inside it. Errors carry the count of newlines before the statement's ';',
// or the number of lines for an unterminated last statement.
func (p *parser) run(src string) error {
	start, end := -1, -1       // the statement's first and past-last content bytes
	split, gap := false, false // a newline or comment inside it; since its last content byte
	for i := 0; i < len(src); i++ {
		c := scanClass[src[i]]
		if c == '/' && (i+1 == len(src) || src[i+1] != '/') {
			c = 0
		}
		switch c {
		case '\n':
			p.line++
			gap = true
		case '/':
			for i+1 < len(src) && src[i+1] != '\n' {
				i++
			}
			gap = true
		case ';':
			if err := p.statement(src, start, end, split); err != nil {
				return err
			}
			start, end, split, gap = -1, -1, false, false
		case 0:
			if start < 0 {
				start = i
			} else if gap {
				split = true
			}
			for i+1 < len(src) && scanClass[src[i+1]] == 0 {
				i++
			}
			gap, end = false, i+1
		}
	}
	p.line++
	return p.statement(src, start, end, split)
}

func (p *parser) statement(src string, start, end int, split bool) error {
	if start < 0 {
		return nil
	}
	s := src[start:end]
	if split { // the rare copy: each line without its comment, joined by spaces
		var b []byte
		for line, rest, more := "", s, true; more; {
			line, rest, more = strings.Cut(rest, "\n")
			line, _, _ = strings.Cut(line, "//")
			b = append(append(b, line...), ' ')
		}
		s = string(b[:len(b)-1])
	}
	s = strings.TrimSpace(s) // Unicode white space at the ends
	if s == "" {
		return nil
	}
	switch s[0] { // the keywords differ in their first byte
	case 'O':
		if ver, ok := strings.CutPrefix(s, "OPENQASM"); ok {
			if ver = strings.TrimSpace(ver); ver != "2.0" {
				return p.errf("unsupported OPENQASM version %q", ver)
			}
			return nil
		}
	case 'i':
		// The qelib1 gate set is built in, so includes are not read — but
		// the statement must still be well-formed: a quoted file name.
		if arg, ok := strings.CutPrefix(s, "include"); ok {
			if arg = strings.TrimSpace(arg); len(arg) < 2 || arg[0] != '"' || arg[len(arg)-1] != '"' {
				return p.errf(`malformed include %q: want include "file"`, arg)
			}
			return nil
		}
	case 'q':
		if decl, ok := strings.CutPrefix(s, "qreg "); ok {
			return p.declare(decl)
		}
	case 'c':
		if strings.HasPrefix(s, "creg ") {
			return nil // classical registers are irrelevant to weak simulation
		}
	case 'm':
		if strings.HasPrefix(s, "measure ") || strings.HasPrefix(s, "measure\t") {
			return nil // measurement of all qubits is implicit
		}
	case 'b':
		if strings.HasPrefix(s, "barrier") {
			if p.ensureCirc(); p.circ != nil {
				p.circ.Barrier()
			}
			return nil
		}
	}
	return p.gateStatement(s)
}

func (p *parser) declare(decl string) error {
	name, size, err := parseRegRef(strings.TrimSpace(decl))
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
	p.regs[name] = qreg{offset: p.width, size: size}
	p.width += size
	return nil
}

// ensureCirc creates the circuit once a register exists, at the first gate
// or barrier or at the end of input, fixing the total width.
func (p *parser) ensureCirc() {
	if p.circ == nil && p.width > 0 {
		p.circ = circuit.New(p.width, p.name)
		p.circ.Ops = make([]circuit.Op, 0, p.ops)
	}
}

// gateStatement applies "name(p1,p2) a[0],b[1]". Its checks run in a fixed
// order, so a bad statement always reports the same error: parentheses,
// shape, each operand, each parameter, then the mnemonic and its arity.
func (p *parser) gateStatement(s string) error {
	p.ensureCirc()
	if p.circ == nil {
		return p.errf("gate before any qreg declaration: %q", s)
	}
	mnemonic, params, rest := s, "", ""
	paren := strings.IndexByte(s, '(')
	if paren >= 0 {
		closeAt := topIndex(s[paren+1:], ')')
		if closeAt < 0 {
			return p.errf("unbalanced parentheses in %q", s)
		}
		closeAt += paren + 1
		mnemonic, params, rest = strings.TrimSpace(s[:paren]), s[paren+1:closeAt], s[closeAt+1:]
	} else if sp := strings.IndexByte(s, ' '); sp >= 0 {
		mnemonic, rest = s[:sp], s[sp+1:]
	}
	if mnemonic == "" {
		return p.errf("malformed gate statement %q", s)
	}
	var qbuf [3]int
	qubits := qbuf[:0]
	for more := true; more; {
		ref := rest
		if comma := strings.IndexByte(rest, ','); comma >= 0 {
			ref, rest = rest[:comma], rest[comma+1:]
		} else {
			more = false
		}
		if ref = strings.TrimSpace(ref); ref == "" {
			continue
		}
		q, err := p.resolve(ref)
		if err != nil {
			return p.errf("%v", err)
		}
		for _, prev := range qubits {
			if prev == q {
				return p.errf("qubit %s used twice in %q", ref, s)
			}
		}
		qubits = append(qubits, q)
	}
	if len(qubits) == 0 {
		return p.errf("malformed gate statement %q", s)
	}
	var abuf [3]float64
	angles := abuf[:0]
	for more := paren >= 0; more; {
		expr := params
		if comma := topIndex(params, ','); comma >= 0 {
			expr, params = params[:comma], params[comma+1:]
		} else {
			more = false
		}
		expr = strings.TrimSpace(expr)
		v, err := evalExpr(expr)
		if err != nil {
			return p.errf("bad parameter %q: %v", expr, err)
		}
		angles = append(angles, v)
	}
	form, ok := p.lastForm, mnemonic == p.lastGate
	if !ok {
		form, ok = gateForms[mnemonic]
		p.lastForm, p.lastGate = form, mnemonic
	}
	if !ok {
		return p.errf("unsupported gate %q", mnemonic)
	}
	if len(qubits) != form.nq || len(angles) != form.na {
		return p.errf("%s expects %d qubits and %d parameters, got %d and %d",
			mnemonic, form.nq, form.na, len(qubits), len(angles))
	}
	// Within their arity, angles and qubits are abuf and qbuf.
	if mnemonic == "u2" {
		abuf = [3]float64{math.Pi / 2, abuf[0], abuf[1]}
	}
	g := gate.Gate{Kind: form.kind, Params: abuf}
	switch q := qbuf; mnemonic {
	case "swap":
		p.add(g, q[1], q[0]).add(g, q[0], q[1]).add(g, q[1], q[0])
	case "cswap":
		p.add(g, q[2], q[0], q[1]).add(g, q[1], q[0], q[2]).add(g, q[2], q[0], q[1])
	default:
		p.add(g, q[form.nq-1], q[:form.nq-1]...)
	}
	return nil
}

// add appends g on target under positive controls ctls. Each op's controls
// are a capped window of a shared slab, so a parse allocates them in bulk.
func (p *parser) add(g gate.Gate, target int, ctls ...int) *parser {
	op := circuit.Op{Kind: circuit.GateOp, Gate: g, Target: target}
	if len(ctls) > 0 {
		if cap(p.slab)-len(p.slab) < len(ctls) {
			p.slab = make([]gate.Control, 0, 256)
		}
		n := len(p.slab)
		for _, c := range ctls {
			p.slab = append(p.slab, gate.Pos(c))
		}
		op.Controls = p.slab[n:len(p.slab):len(p.slab)]
	}
	p.circ.Ops = append(p.circ.Ops, op)
	return p
}

// gateForm is one qelib1 mnemonic: how many qubits and parameters it takes
// and the kind of gate it puts on its last qubit, controlled by the others.
type gateForm struct {
	nq, na int
	kind   gate.Kind
}

// gateForms holds every mnemonic; swap and cswap expand to three CNOTs and
// three Toffolis, and u2(φ,λ) is u3(π/2,φ,λ).
var gateForms = map[string]gateForm{
	"id": {1, 0, gate.I}, "x": {1, 0, gate.X}, "y": {1, 0, gate.Y}, "z": {1, 0, gate.Z},
	"h": {1, 0, gate.H}, "s": {1, 0, gate.S}, "sdg": {1, 0, gate.Sdg}, "t": {1, 0, gate.T},
	"tdg": {1, 0, gate.Tdg}, "sx": {1, 0, gate.SX}, "sy": {1, 0, gate.SY},
	"rx": {1, 1, gate.RX}, "ry": {1, 1, gate.RY}, "rz": {1, 1, gate.RZ}, "p": {1, 1, gate.Phase},
	"u1": {1, 1, gate.Phase}, "u2": {1, 2, gate.U}, "u3": {1, 3, gate.U}, "u": {1, 3, gate.U},
	"cx": {2, 0, gate.X}, "CX": {2, 0, gate.X}, "cy": {2, 0, gate.Y}, "cz": {2, 0, gate.Z},
	"ch": {2, 0, gate.H}, "cp": {2, 1, gate.Phase}, "cu1": {2, 1, gate.Phase},
	"crx": {2, 1, gate.RX}, "cry": {2, 1, gate.RY}, "crz": {2, 1, gate.RZ},
	"swap": {2, 0, gate.X}, "ccx": {3, 0, gate.X}, "ccz": {3, 0, gate.Z}, "cswap": {3, 0, gate.X},
}

// resolve maps "reg[i]" to an absolute qubit index.
func (p *parser) resolve(ref string) (int, error) {
	name, idx, err := parseRegRef(ref)
	if err != nil {
		return 0, fmt.Errorf("bad qubit reference %q: %v", ref, err)
	}
	reg, ok := p.last, name == p.lastName
	if !ok {
		reg, ok = p.regs[name]
		p.last, p.lastName = reg, name
	}
	if !ok {
		return 0, fmt.Errorf("unknown register %q", name)
	}
	if idx < 0 || idx >= reg.size {
		return 0, fmt.Errorf("index %d out of range for register %s[%d]", idx, name, reg.size)
	}
	return reg.offset + idx, nil
}

// parseRegRef splits "name[k]" into its parts.
func parseRegRef(s string) (string, int, error) {
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

// topIndex is the index of the first c in s outside the parentheses s
// opens, or -1.
func topIndex(s string, c byte) int {
	i := strings.IndexByte(s, c)
	if i < 0 || strings.IndexByte(s[:i], '(') < 0 {
		return i
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == c && depth == 0:
			return i
		case s[i] == '(':
			depth++
		case s[i] == ')':
			depth--
		}
	}
	return -1
}
