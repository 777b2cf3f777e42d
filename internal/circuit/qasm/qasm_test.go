package qasm

import (
	"math"
	"strings"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/sim"
)

func TestEvalExpr(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"0", 0},
		{"1.5", 1.5},
		{"pi", math.Pi},
		{"pi/2", math.Pi / 2},
		{"-pi/4", -math.Pi / 4},
		{"2*pi", 2 * math.Pi},
		{"pi/2^3", math.Pi / 8},
		{"(1+2)*3", 9},
		{"1e-3", 1e-3},
		{"1.5e2", 150},
		{"--2", 2},
		{"3 - 1 - 1", 1},
		{"8/2/2", 2},
	}
	for _, tc := range cases {
		got, err := evalExpr(tc.src)
		if err != nil {
			t.Errorf("evalExpr(%q): %v", tc.src, err)
			continue
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("evalExpr(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
	for _, bad := range []string{"", "1+", "(1", "pj", "1/0", "1 2"} {
		if _, err := evalExpr(bad); err == nil {
			t.Errorf("evalExpr(%q) should fail", bad)
		}
	}
}

const bellSrc = `
OPENQASM 2.0;
include "qelib1.inc";
// a Bell pair
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`

func TestParseBell(t *testing.T) {
	c, err := Parse(bellSrc, "bell")
	if err != nil {
		t.Fatal(err)
	}
	if c.NQubits != 2 {
		t.Fatalf("NQubits = %d", c.NQubits)
	}
	if got := c.NumOps(); got != 2 {
		t.Fatalf("NumOps = %d, want 2 (measure ignored)", got)
	}
	s, _ := sim.NewVector(c, 0)
	st, _ := s.Run()
	probs := st.Probabilities()
	if math.Abs(probs[0]-0.5) > 1e-12 || math.Abs(probs[3]-0.5) > 1e-12 {
		t.Errorf("bell probabilities = %v", probs)
	}
}

func TestParseMultiRegister(t *testing.T) {
	src := `OPENQASM 2.0;
qreg a[2];
qreg b[1];
x a[1];
cx a[1],b[0];
`
	c, err := Parse(src, "multi")
	if err != nil {
		t.Fatal(err)
	}
	if c.NQubits != 3 {
		t.Fatalf("NQubits = %d", c.NQubits)
	}
	s, _ := sim.NewVector(c, 0)
	st, _ := s.Run()
	// a[1] is qubit 1, b[0] is qubit 2 → state |110⟩ = index 6.
	if p := st.Probabilities()[6]; math.Abs(p-1) > 1e-12 {
		t.Errorf("expected deterministic |110⟩, got p=%v", p)
	}
}

func TestParseParameterizedGates(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[2];
rx(pi/2) q[0];
u3(pi/2,0,pi) q[1];
cp(pi/4) q[0],q[1];
crz(-pi/2) q[1],q[0];
u2(0,pi) q[0];
swap q[0],q[1];
`
	c, err := Parse(src, "params")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewVector(c, 0); err != nil {
		t.Fatal(err)
	}
}

// TestParseShapes pins the width and the op list of small programs,
// including ones that apply no gate.
func TestParseShapes(t *testing.T) {
	cases := []struct {
		src    string
		qubits int
		ops    []string
	}{
		{"OPENQASM 2.0; qreg q[2]; creg c[2]; measure q[0] -> c[0];", 2, nil},
		{"qreg a[1];\nqreg b[2];", 3, nil},
		{"qreg q[2];\nbarrier q;\nh q[0];", 2, []string{"barrier", "h q0"}},
		{"qreg q[2];\nbarrier q;", 2, []string{"barrier"}},
		{"qreg q[2];\nh q[1];\nbarrier q;\ncx q[1],q[0];", 2, []string{"h q1", "barrier", "x c1 q0"}},
		{"qreg q[2]; // h q[0];\nh\nq[1] // split by a newline\n;", 2, []string{"h q1"}},
		{"qreg q[2];\nswap q[0],q[1];", 2, []string{"x c0 q1", "x c1 q0", "x c0 q1"}},
	}
	for _, tc := range cases {
		c, err := Parse(tc.src, "shape")
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		var ops []string
		for _, op := range c.Ops {
			ops = append(ops, circuit.OpString(op))
		}
		if c.NQubits != tc.qubits || strings.Join(ops, "; ") != strings.Join(tc.ops, "; ") {
			t.Errorf("Parse(%q) = %d qubits %q, want %d qubits %q", tc.src, c.NQubits, ops, tc.qubits, tc.ops)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"OPENQASM 3.0;\nqreg q[1];",          // wrong version
		"qreg q[0];",                         // empty register
		"qreg q[1];\nqreg q[2];",             // duplicate
		"h q[0];",                            // gate before qreg
		"qreg q[1];\nh q[5];",                // out of range
		"qreg q[1];\nfrobnicate q[0];",       // unknown gate
		"qreg q[1];\nh r[0];",                // unknown register
		"qreg q[2];\ncx q[0];",               // wrong arity
		"qreg q[1];\nrx(oops) q[0];",         // bad parameter
		"qreg q[1];\nh q[0];\nqreg r[1];",    // late declaration
		"qreg q[1];\nrx(pi q[0];",            // unbalanced parens
		"OPENQASM 2.0;\ncreg c[1];",          // no quantum register
		"qreg q[1];\nbarrier q;\nqreg r[1];", // declaration after a barrier
	}
	for _, src := range cases {
		if _, err := Parse(src, "bad"); err == nil {
			t.Errorf("Parse succeeded on invalid source:\n%s", src)
		}
	}
}

func TestWriteParseRoundtrip(t *testing.T) {
	// qft and supremacy circuits round-trip through QASM with identical
	// semantics.
	for _, name := range []string{"qft_4", "supremacy_2x3_8", "running_example_noperm"} {
		var c *circuit.Circuit
		var err error
		if name == "running_example_noperm" {
			c = algo.RunningExample()
		} else {
			c, err = algo.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
		}
		src, err := Write(c)
		if err != nil {
			t.Fatalf("Write(%s): %v", name, err)
		}
		back, err := Parse(src, c.Name)
		if err != nil {
			t.Fatalf("Parse(Write(%s)): %v\n%s", name, err, src)
		}
		s1, _ := sim.NewVector(c, 0)
		st1, _ := s1.Run()
		s2, _ := sim.NewVector(back, 0)
		st2, _ := s2.Run()
		dev, err := st1.MaxDeviationFrom(st2)
		if err != nil {
			t.Fatal(err)
		}
		if dev > 1e-9 {
			t.Errorf("%s: roundtrip deviates by %v", name, dev)
		}
	}
}

func TestWriteRejectsPermutations(t *testing.T) {
	c, err := algo.Shor(15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Write(c); err == nil {
		t.Error("expected error writing modular-exponentiation permutations")
	}
}

func TestWriteRejectsWideControls(t *testing.T) {
	c, _ := algo.Grover(5, 1)
	if _, err := Write(c); err == nil {
		t.Error("expected error for 5-control oracle in QASM 2.0")
	}
}

func TestWriteContainsMeasurements(t *testing.T) {
	c := circuit.New(2, "m")
	c.H(0)
	src, err := Write(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "measure q[1] -> c[1];") {
		t.Errorf("missing measurement:\n%s", src)
	}
	if !strings.Contains(src, "OPENQASM 2.0;") {
		t.Error("missing header")
	}
}

func TestParseFullGateSet(t *testing.T) {
	// Exercise every supported mnemonic once; semantics are validated by
	// simulating without error and checking the op count.
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
id q[0]; x q[0]; y q[1]; z q[2]; h q[0]; s q[1]; sdg q[1];
t q[2]; tdg q[2]; sx q[0]; sy q[1];
rx(0.1) q[0]; ry(0.2) q[1]; rz(0.3) q[2]; p(0.4) q[0]; u1(0.5) q[1];
u2(0.1,0.2) q[2]; u3(0.1,0.2,0.3) q[0]; u(0.1,0.2,0.3) q[1];
CX q[0],q[1]; cx q[1],q[2]; cy q[0],q[2]; cz q[0],q[1]; ch q[1],q[0];
cp(0.6) q[0],q[2]; cu1(0.7) q[1],q[2];
crx(0.8) q[0],q[1]; cry(0.9) q[1],q[2]; crz(1.0) q[2],q[0];
swap q[0],q[2];
ccx q[0],q[1],q[2]; ccz q[0],q[1],q[2]; cswap q[0],q[1],q[2];
barrier q;
`
	c, err := Parse(src, "full")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewVector(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n2 := st.Norm2(); math.Abs(n2-1) > 1e-9 {
		t.Errorf("norm after full gate set = %v", n2)
	}
}

func TestParseArityErrors(t *testing.T) {
	cases := []string{
		"qreg q[3];\nswap q[0];",
		"qreg q[3];\nccx q[0],q[1];",
		"qreg q[3];\nrx(1,2) q[0];",
		"qreg q[3];\nu3(1) q[0];",
		"qreg q[3];\ncp(1) q[0];",
		"qreg q[3];\nh q[0],q[1];",
	}
	for _, src := range cases {
		if _, err := Parse(src, "bad"); err == nil {
			t.Errorf("accepted wrong arity: %q", src)
		}
	}
}

func TestCSwapSemantics(t *testing.T) {
	// cswap with control set swaps the two targets.
	src := `OPENQASM 2.0;
qreg q[3];
x q[2];
x q[0];
cswap q[2],q[0],q[1];
`
	c, err := Parse(src, "cswap")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sim.NewVector(c, 0)
	st, _ := s.Run()
	// q2=1 control, q0=1 swapped into q1: expect |110⟩ = index 6.
	if p := st.Probabilities()[6]; math.Abs(p-1) > 1e-9 {
		t.Errorf("cswap result wrong: p(110)=%v", p)
	}
}

// TestParseAllocatesPerParse pins that a parse allocates a few times per
// circuit (the circuit, its op list, the controls slab), not per gate or
// statement.
func TestParseAllocatesPerParse(t *testing.T) {
	for _, name := range []string{"qft_16", "qft_32"} {
		c, err := algo.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		src, err := Write(c)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = Parse(src, "request") }); allocs > 10 {
			t.Errorf("%s: Parse allocates %.0f times, want at most 10", name, allocs)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for _, name := range []string{"qft_16", "qft_32"} {
		c, err := algo.Generate(name)
		if err != nil {
			b.Fatal(err)
		}
		src, err := Write(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := Parse(src, "request"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
