package cnum

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestArithmetic(t *testing.T) {
	a := New(1, 2)
	b := New(3, -4)

	if got := a.Add(b); got != New(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != New(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	// (1+2i)(3-4i) = 3 -4i +6i +8 = 11+2i
	if got := a.Mul(b); got != New(11, 2) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Neg(); got != New(-1, -2) {
		t.Errorf("Neg = %v", got)
	}
	if got := a.Conj(); got != New(1, -2) {
		t.Errorf("Conj = %v", got)
	}
	if got := a.Scale(2); got != New(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Abs2(); got != 5 {
		t.Errorf("Abs2 = %v", got)
	}
	if got := a.Abs(); !approx(got, math.Sqrt(5), 1e-15) {
		t.Errorf("Abs = %v", got)
	}
}

func TestDivMatchesComplex128(t *testing.T) {
	a := New(1.5, -2.25)
	b := New(-0.5, 3)
	got := a.Div(b)
	want := FromComplex128(a.ToComplex128() / b.ToComplex128())
	if !got.ApproxEq(want, 1e-14) {
		t.Errorf("Div = %v, want %v", got, want)
	}
}

func TestPolar(t *testing.T) {
	c := FromPolar(2, math.Pi/3)
	if !approx(c.Abs(), 2, 1e-14) {
		t.Errorf("Abs = %v", c.Abs())
	}
	if !approx(c.Phase(), math.Pi/3, 1e-14) {
		t.Errorf("Phase = %v", c.Phase())
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		c    Complex
		want string
	}{
		{New(1, 0), "1"},
		{New(0, 1), "1i"},
		{New(0, -0.5), "-0.5i"},
		{New(1, 1), "1+1i"},
		{New(1, -1), "1-1i"},
		{Zero, "0"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.c, got, tc.want)
		}
	}
}

// Property: multiplication agrees with complex128 arithmetic.
func TestMulMatchesComplex128Property(t *testing.T) {
	f := func(ar, ai, br, bi float64) bool {
		// Bound magnitudes so products stay finite; overflow semantics are
		// not what this property is about.
		ar, ai = math.Mod(ar, 1e100), math.Mod(ai, 1e100)
		br, bi = math.Mod(br, 1e100), math.Mod(bi, 1e100)
		if math.IsNaN(ar + ai + br + bi) {
			return true
		}
		a, b := New(ar, ai), New(br, bi)
		got := a.Mul(b)
		want := FromComplex128(a.ToComplex128() * b.ToComplex128())
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |a·b|² == |a|²·|b|² up to rounding.
func TestAbs2MultiplicativeProperty(t *testing.T) {
	f := func(ar, ai, br, bi float64) bool {
		ar, ai = math.Mod(ar, 100), math.Mod(ai, 100)
		br, bi = math.Mod(br, 100), math.Mod(bi, 100)
		if math.IsNaN(ar + ai + br + bi) {
			return true
		}
		a, b := New(ar, ai), New(br, bi)
		lhs := a.Mul(b).Abs2()
		rhs := a.Abs2() * b.Abs2()
		return approx(lhs, rhs, 1e-9*(1+rhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableInterning(t *testing.T) {
	tab := NewTableTol(1e-6)
	// The quantization grid is tol/100: values within a grid step merge.
	a := tab.LookupFloat(0.5)
	b := tab.LookupFloat(0.5 + 1e-12)
	if a != b {
		t.Errorf("values within a grid step interned differently: %v vs %v", a, b)
	}
	c := tab.LookupFloat(0.5 + 1e-3)
	if a == c {
		t.Errorf("clearly distinct values merged")
	}
	if got := tab.LookupFloat(1e-9); got != 0 {
		t.Errorf("near-zero not flushed to zero: %v", got)
	}
	if got := tab.LookupFloat(-1e-9); got != 0 {
		t.Errorf("negative near-zero not flushed to zero: %v", got)
	}
}

func TestTableGridIsFixed(t *testing.T) {
	// The canonical representative is a pure function of the value — the
	// grid never drifts with insertion order. This invariant is what keeps
	// node sharing exact over tens of thousands of gate applications.
	t1 := NewTableTol(1e-6)
	t2 := NewTableTol(1e-6)
	t1.LookupFloat(0.4999997) // seed t1 with a nearby value first
	a := t1.LookupFloat(0.5)
	b := t2.LookupFloat(0.5)
	if a != b {
		t.Errorf("representative depends on insertion history: %v vs %v", a, b)
	}
	if math.Abs(a-0.5) > 1e-6/2 {
		t.Errorf("representative %v too far from 0.5", a)
	}
}

func TestTableDeterministicAcrossEqualInputs(t *testing.T) {
	// Equal canonical inputs must produce equal canonical outputs through
	// arithmetic — the sharing guarantee of the fixed grid.
	tab := NewTable()
	x := tab.LookupFloat(1 / math.Sqrt2)
	y := tab.LookupFloat(1 / math.Sqrt2)
	if x != y {
		t.Fatal("same value interned differently")
	}
	p1 := tab.LookupFloat(x * x)
	p2 := tab.LookupFloat(y * y)
	if p1 != p2 {
		t.Errorf("products of equal representatives interned differently: %v vs %v", p1, p2)
	}
}

func TestTableComplexAndStats(t *testing.T) {
	tab := NewTable()
	c1 := tab.Lookup(New(0.25, -0.75))
	c2 := tab.Lookup(New(0.25+1e-14, -0.75-1e-14))
	if c1 != c2 {
		t.Errorf("complex interning failed: %v vs %v", c1, c2)
	}
}

func TestTableLookupDoesNotAllocate(t *testing.T) {
	tab := NewTable()
	c := New(1/math.Sqrt2, -0.3)
	if n := testing.AllocsPerRun(100, func() { c = tab.Lookup(c.Mul(c)) }); n != 0 {
		t.Errorf("Lookup allocates %v times per call", n)
	}
}

func TestTableNonFinitePassThrough(t *testing.T) {
	tab := NewTable()
	for _, v := range []float64{math.Inf(1), math.Inf(-1)} {
		if got := tab.LookupFloat(v); got != v {
			t.Errorf("LookupFloat(%v) = %v, want it unchanged", v, got)
		}
	}
	if got := tab.LookupFloat(math.NaN()); !math.IsNaN(got) {
		t.Errorf("LookupFloat(NaN) = %v, want NaN", got)
	}
	if got := tab.Lookup(New(math.NaN(), math.Inf(-1))); !math.IsNaN(got.Re) || !math.IsInf(got.Im, -1) {
		t.Errorf("Lookup(NaN-Inf·i) = %v", got)
	}
}

// Property: interning is idempotent and stays within tolerance.
func TestTableIdempotentProperty(t *testing.T) {
	tab := NewTable()
	f := func(v float64) bool {
		v = math.Mod(v, 10)
		if math.IsNaN(v) {
			return true
		}
		a := tab.LookupFloat(v)
		b := tab.LookupFloat(a)
		return a == b && math.Abs(a-v) <= 2*tab.Tolerance()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewTableTolPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive tolerance")
		}
	}()
	NewTableTol(0)
}
