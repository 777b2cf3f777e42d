package qasm

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"weaksim/internal/circuit"
)

// FuzzParse drives arbitrary byte soup through the QASM parser: it must
// never panic, and anything it accepts must be a valid circuit.
func FuzzParse(f *testing.F) {
	f.Add(bellSrc)
	f.Add("OPENQASM 2.0;\nqreg q[3];\nrx(pi/2) q[0];\ncx q[0],q[2];\n")
	f.Add("qreg a[2]; qreg b[2]; ccx a[0],a[1],b[0];")
	f.Add("OPENQASM 2.0; include \"qelib1.inc\"; qreg q[1]; u3(1,2,3) q[0]; barrier q;")
	f.Add("// nothing but comments\n")
	f.Add("qreg q[1];\nrx(((1+2)*pi)/4) q[0];")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src, "fuzz")
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parser accepted an invalid circuit: %v\ninput: %q", err, src)
		}
	})
}

// FuzzParseMatchesReference holds Parse to the reference parser kept in
// reference_test.go: both accept and reject the same inputs with the same
// error (the same "qasm:<line>:" prefix included), and what they accept is
// the same circuit, op by op, down to each parameter's bits.
func FuzzParseMatchesReference(f *testing.F) {
	for _, pattern := range []string{"golden/*.qasm", "err_*.qasm"} {
		files, err := filepath.Glob(filepath.Join("testdata", pattern))
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed files for %s: %v", pattern, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Add(bellSrc)
	f.Add("OPENQASM 2.0; qreg q[2]; creg c[2]; measure q[0] -> c[0];")
	f.Add("qreg q[2];\nbarrier q;\nh q[0] ;// c;\ncx q[0],\n  q[1]; rx(-(pi/2)^2,) q[1]")
	f.Add("qreg a[1];\nqreg b [2];\ncswap b[1], a[0] ,b[0];\nu2(1e-3,.5) b[1];\nswap a[0],b[1]")
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := Parse(src, "fuzz")
		want, werr := refParse(src, "fuzz")
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("errors differ on %q:\n got  %v\n want %v", src, gerr, werr)
		}
		if gerr == nil {
			if diff := circuitDiff(got, want); diff != "" {
				t.Fatalf("circuits differ on %q: %s", src, diff)
			}
		}
	})
}

// circuitDiff describes the first difference between two circuits, field
// by field, comparing parameters by their bits; "" means none.
func circuitDiff(a, b *circuit.Circuit) string {
	if a.NQubits != b.NQubits || a.Name != b.Name || len(a.Ops) != len(b.Ops) {
		return fmt.Sprintf("shape %d/%q/%d ops vs %d/%q/%d ops", a.NQubits, a.Name, len(a.Ops), b.NQubits, b.Name, len(b.Ops))
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		same := x.Kind == y.Kind && x.Gate.Kind == y.Gate.Kind && x.Target == y.Target &&
			x.PermWidth == y.PermWidth && x.Label == y.Label &&
			slices.Equal(x.Controls, y.Controls) && slices.Equal(x.Perm, y.Perm)
		for k := range x.Gate.Params {
			same = same && math.Float64bits(x.Gate.Params[k]) == math.Float64bits(y.Gate.Params[k])
		}
		if !same {
			return fmt.Sprintf("op %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// FuzzEvalExpr checks the parameter-expression evaluator never panics and
// evaluates exactly as the reference evaluator does: the same bits, or the
// same error.
func FuzzEvalExpr(f *testing.F) {
	for _, seed := range []string{"pi", "-pi/2", "1e9", "2^10", "((((1))))", "1+2*3-4/5", "-1.5e-3", "0x1p3", ".5e+", "1e400"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return // deep recursion on parentheses is not interesting here
		}
		v, err := evalExpr(src)
		w, werr := refEvalExpr(src)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("evalExpr(%q): error %v, reference %v", src, err, werr)
		}
		if err == nil && math.Float64bits(v) != math.Float64bits(w) && !(v != v && w != w) {
			t.Fatalf("evalExpr(%q) = %v, reference %v", src, v, w)
		}
	})
}

// FuzzWriteParse: any circuit the writer can express must round-trip
// through the parser.
func FuzzWriteParse(f *testing.F) {
	f.Add(uint8(3), uint16(12))
	f.Fuzz(func(t *testing.T, nRaw uint8, opsRaw uint16) {
		n := 1 + int(nRaw%4)
		src := buildWritableCircuit(n, int(opsRaw%24))
		c, err := Parse(src, "generated")
		if err != nil {
			t.Fatalf("generated source rejected: %v\n%s", err, src)
		}
		out, err := Write(c)
		if err != nil {
			t.Fatalf("writer rejected parsed circuit: %v", err)
		}
		if _, err := Parse(out, "roundtrip"); err != nil {
			t.Fatalf("round-trip output rejected: %v\n%s", err, out)
		}
	})
}

// buildWritableCircuit emits simple QASM using only writer-supported gates.
func buildWritableCircuit(n, ops int) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\nqreg q[")
	b.WriteString(strings.Repeat("I", 0)) // no-op; keep builder simple
	b.WriteString(itoa(n))
	b.WriteString("];\n")
	gates := []string{"h", "x", "t", "s"}
	for i := 0; i < ops; i++ {
		g := gates[i%len(gates)]
		q := i % n
		b.WriteString(g)
		b.WriteString(" q[")
		b.WriteString(itoa(q))
		b.WriteString("];\n")
		if n > 1 && i%3 == 0 {
			b.WriteString("cx q[")
			b.WriteString(itoa(q))
			b.WriteString("],q[")
			b.WriteString(itoa((q + 1) % n))
			b.WriteString("];\n")
		}
	}
	return b.String()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for ; v > 0; v /= 10 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
	}
	return string(digits)
}
