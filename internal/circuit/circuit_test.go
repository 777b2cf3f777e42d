package circuit

import (
	"math"
	"strings"
	"testing"

	"weaksim/internal/gate"
)

func TestBuilderAndValidate(t *testing.T) {
	c := New(3, "builder")
	c.H(0).X(1).Y(2).Z(0).S(1).T(2)
	c.RX(0.1, 0).RY(0.2, 1).RZ(0.3, 2).P(0.4, 0)
	c.CX(0, 1).CZ(1, 2).CP(0.5, 0, 2).CCX(0, 1, 2)
	c.MCX([]int{0, 1}, 2).MCZ([]int{0}, 1)
	c.Swap(0, 2)
	c.Barrier()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := c.NumOps(); got != 19 {
		t.Errorf("NumOps = %d, want 19 (swap counts as 3, barrier as 0)", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []func(*Circuit){
		func(c *Circuit) { c.H(3) },
		func(c *Circuit) { c.H(-1) },
		func(c *Circuit) { c.CX(3, 0) },
		func(c *Circuit) { c.CX(1, 1) }, // control == target
		func(c *Circuit) { c.Apply(gate.RXGate(math.NaN()), 0) },
		func(c *Circuit) { c.Apply(gate.RXGate(math.Inf(1)), 0) },
		func(c *Circuit) { c.Apply(gate.UGate(0, math.Inf(-1), 0), 0) },
		func(c *Circuit) { c.Apply(gate.XGate, 0, gate.Pos(1), gate.Pos(1)) }, // dup control
		func(c *Circuit) { c.Permutation([]uint64{0, 1}, 1, "p", gate.Pos(0)) },
		func(c *Circuit) { c.Permutation([]uint64{0, 1, 2}, 2, "p") },
		func(c *Circuit) { c.Permutation([]uint64{0, 1}, 9, "p") },
		func(c *Circuit) { c.Permutation([]uint64{0, 7, 1, 2}, 2, "p") }, // entry out of range
		func(c *Circuit) { c.Permutation([]uint64{0, 0, 1, 2}, 2, "p") }, // not a bijection
		func(c *Circuit) { // one label, two maps
			c.Permutation([]uint64{1, 2, 3, 0}, 2, "f").Permutation([]uint64{0, 1, 3, 2}, 2, "f")
		},
		func(c *Circuit) { // one label, two widths
			c.Permutation([]uint64{1, 0}, 1, "f").Permutation([]uint64{1, 0, 2, 3}, 2, "f")
		},
	}
	for i, build := range cases {
		c := New(3, "bad")
		build(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid op", i)
		}
	}
}

// TestValidateAllocatesNothing pins the duplicate-qubit check to the op's
// own control list: no per-op set, however many controls a gate has.
func TestValidateAllocatesNothing(t *testing.T) {
	c := New(12, "gates")
	wide := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i := 0; i < 50; i++ {
		c.H(i%12).CX(i%12, (i+1)%12).RZ(0.25, 3).MCZ(wide, 11).MCX(wide[:5], 7)
	}
	c.Barrier()
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate allocates %.0f times per call, want 0", allocs)
	}
}

// TestValidateNamesTheBadQubit: a wide gate's repeated or out-of-range
// qubit is reported by number.
func TestValidateNamesTheBadQubit(t *testing.T) {
	cases := []struct {
		ctls   []int
		target int
		want   string
	}{
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 5}, 11, "qubit 5 used twice"},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 3, "qubit 3 used twice"},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12}, 11, "control 12 out of range"},
		{[]int{0, 1, 1}, 11, "qubit 1 used twice"},
	}
	for _, tc := range cases {
		c := New(12, "bad").MCX(tc.ctls, tc.target)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("MCX(%v, %d): Validate = %v, want %q", tc.ctls, tc.target, err, tc.want)
		}
	}
}

func TestGateCounts(t *testing.T) {
	c := New(3, "counts")
	c.H(0).H(1).CX(0, 1).CCX(0, 1, 2)
	c.Permutation([]uint64{1, 0}, 1, "flip")
	counts := c.GateCounts()
	if counts["h"] != 2 || counts["cx"] != 1 || counts["ccx"] != 1 || counts["perm"] != 1 {
		t.Errorf("GateCounts = %v", counts)
	}
}

func TestOpString(t *testing.T) {
	c := New(3, "s")
	c.Apply(gate.XGate, 2, gate.Pos(0), gate.Neg(1))
	c.Permutation([]uint64{0, 1}, 1, "mul", gate.Pos(2))
	c.Barrier()
	if got := OpString(c.Ops[0]); got != "x c0 !c1 q2" {
		t.Errorf("OpString gate = %q", got)
	}
	if got := OpString(c.Ops[1]); got != "mul[q0..q0] c2" {
		t.Errorf("OpString perm = %q", got)
	}
	if got := OpString(c.Ops[2]); got != "barrier" {
		t.Errorf("OpString barrier = %q", got)
	}
	if s := c.String(); !strings.Contains(s, "circuit \"s\" on 3 qubits") {
		t.Errorf("String = %q", s)
	}
}

func TestRenderFigure1Style(t *testing.T) {
	// The paper's Fig. 1: H on q2, CNOT(q2→q1), X on q0, CNOT(q1→q0).
	c := New(3, "figure1")
	c.H(2).CX(2, 1).X(0).CX(1, 0)
	out := c.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want 3:\n%s", len(lines), out)
	}
	// Most significant qubit on top.
	if !strings.HasPrefix(lines[0], "|q2 >") {
		t.Errorf("top line is %q, want q2 first", lines[0])
	}
	if !strings.Contains(lines[0], "[h]") {
		t.Errorf("q2 line missing H gate: %q", lines[0])
	}
	if !strings.Contains(lines[0], "*") || !strings.Contains(lines[1], "(+)") {
		t.Errorf("CNOT not rendered with control and target:\n%s", out)
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, "[M]==") {
			t.Errorf("wire missing measurement: %q", l)
		}
	}
	// Columns align.
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Errorf("wires have unequal lengths:\n%s", out)
	}
}

func TestRenderNegativeControlAndPermutation(t *testing.T) {
	c := New(3, "r")
	c.Apply(gate.XGate, 0, gate.Neg(2))
	c.Permutation([]uint64{0, 1, 2, 3}, 2, "mul", gate.Pos(2))
	out := c.Render()
	if !strings.Contains(out, "o") {
		t.Errorf("negative control not rendered:\n%s", out)
	}
	if !strings.Contains(out, "[mul]") {
		t.Errorf("permutation box not rendered:\n%s", out)
	}
}

func TestNewPanicsOnZeroQubits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, "empty")
}

func TestDepth(t *testing.T) {
	c := New(3, "depth")
	if c.Depth() != 0 {
		t.Errorf("empty circuit depth = %d", c.Depth())
	}
	c.H(0).H(1).H(2) // parallel layer
	if got := c.Depth(); got != 1 {
		t.Errorf("H layer depth = %d, want 1", got)
	}
	c.CX(0, 1) // touches two qubits at level 1 → level 2
	if got := c.Depth(); got != 2 {
		t.Errorf("after CX depth = %d, want 2", got)
	}
	c.T(2) // qubit 2 still at level 1 → level 2, depth unchanged
	if got := c.Depth(); got != 2 {
		t.Errorf("after parallel T depth = %d, want 2", got)
	}
	c.Barrier()
	c.X(0) // barrier synced everything to 2 → X at 3
	if got := c.Depth(); got != 3 {
		t.Errorf("after barrier+X depth = %d, want 3", got)
	}
}

func TestDepthPermutation(t *testing.T) {
	c := New(3, "permdepth")
	c.H(2)
	c.Permutation([]uint64{1, 0, 3, 2}, 2, "p", gate.Pos(2))
	// The permutation touches q0,q1 (level 0) and control q2 (level 1).
	if got := c.Depth(); got != 2 {
		t.Errorf("depth = %d, want 2", got)
	}
}

func TestDepthSequentialChain(t *testing.T) {
	c := New(1, "chain")
	for i := 0; i < 7; i++ {
		c.T(0)
	}
	if got := c.Depth(); got != 7 {
		t.Errorf("chain depth = %d, want 7", got)
	}
}
