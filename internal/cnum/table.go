package cnum

import "math"

// DefaultTolerance is the zero floor used when a Table is created with
// NewTable (the quantization grid is 100 times finer; see Table). It
// matches the magnitude used by decision-diagram packages for quantum
// simulation: small enough not to merge distinct amplitudes of realistic
// circuits, large enough to absorb accumulated rounding error.
const DefaultTolerance = 1e-10

// Table canonicalizes float64 values (and, through Lookup, Complex values)
// so that numbers that are "equal up to floating-point noise" are
// represented by the exact same bits. Decision-diagram unique tables rely
// on this: node hashing uses keys built from edge weights, which requires
// bit-exact equality.
//
// Despite its name a Table holds no values: canonicalization is a pure
// function of the value and the tolerance. Values are rounded to a fixed
// relative grid (spacing tol/100 at the value's scale), with |v| <= tol
// flushed to exactly zero. A fixed grid — rather than first-seen
// representatives — is essential for long simulations: with drifting
// representatives each lookup injects up to tol of noise relative to the
// previous representative, and over tens of thousands of gate applications
// (e.g. Grover's iterations) the per-value random walk spreads structurally
// identical subtrees across many representatives, destroying node sharing
// and blowing the diagram up. With a fixed grid, equal grid inputs flow
// through identical floating-point operations to equal grid outputs, so
// sharing is exact no matter how long the circuit runs. The price is that
// two nearly-equal values can straddle a grid boundary and round apart;
// this affects a tiny fraction of lookups and at worst duplicates a node,
// never corrupts a value.
type Table struct {
	tol     float64 // zero floor: |v| <= tol canonicalizes to 0
	invGrid float64 // reciprocal of the mantissa grid spacing (tol/gridRatio)
	grid    float64
}

// gridRatio separates the two scales of the table: values are quantized on
// a relative grid gridRatio times finer than the zero floor. The gap
// matters: quantization noise must sit far below the zero floor, or a
// mathematically-zero amplitude can survive the flush, become a leftmost
// normalization divisor, and blow up downstream weights.
const gridRatio = 100

// NewTable returns a Table with the default tolerance.
func NewTable() *Table { return NewTableTol(DefaultTolerance) }

// NewTableTol returns a Table with zero floor tol and mantissa grid
// spacing tol/100. tol must be positive.
func NewTableTol(tol float64) *Table {
	if tol <= 0 {
		panic("cnum: tolerance must be positive")
	}
	grid := tol / gridRatio
	return &Table{tol: tol, grid: grid, invGrid: 1 / grid}
}

// Tolerance returns the zero floor of the table.
func (t *Table) Tolerance() float64 { return t.tol }

// float64 layout: the biased exponent sits above the 52 mantissa bits.
const (
	expShift = 52
	expAll   = 0x7ff // biased exponent of ±Inf and NaN
	expMask  = expAll << expShift
	expHalf  = 1022 // biased exponent of [0.5, 1)
)

// LookupFloat returns the canonical representative of v: the nearest point
// on a relative grid whose spacing is tol/100 at the scale of v, i.e. the
// mantissa is rounded to tol/100 granularity. Relative rounding keeps the
// precision of both the large edge-weight ratios produced by leftmost
// normalization and the small residual amplitudes of
// amplitude-amplification circuits. Values within tol of zero canonicalize
// to exactly 0, so sign-of-zero noise and tiny residues never survive into
// edge weights. ±Inf and NaN are returned unchanged.
//
// The result is bit for bit math.Ldexp(math.Round(frac*invGrid)*grid, exp)
// with frac, exp = math.Frexp(v) and invGrid = 1/grid; for normal inputs
// and results the exponent is split off and put back on the bits directly.
func (t *Table) LookupFloat(v float64) float64 {
	if math.Abs(v) <= t.tol {
		return 0
	}
	b := math.Float64bits(v)
	e := b & expMask
	if e == 0 || e == expMask {
		return t.lookupRare(v)
	}
	// v = frac·2^exp with |frac| in [0.5, 1): frac keeps v's sign and
	// mantissa under the biased exponent of 0.5.
	exp := int(e>>expShift) - expHalf
	frac := math.Float64frombits(b&^expMask | expHalf<<expShift)
	r := math.Round(frac*t.invGrid) * t.grid
	rb := math.Float64bits(r)
	re := int(rb>>expShift) & expAll
	if re == 0 || re == expAll || re+exp <= 0 || re+exp >= expAll {
		return math.Ldexp(r, exp) // zero, subnormal or non-finite r or result
	}
	return math.Float64frombits(rb&^expMask | uint64(re+exp)<<expShift)
}

// lookupRare canonicalizes the inputs LookupFloat does not split by bits:
// non-finite values, returned as they are, and subnormals, which pass the
// zero floor only under a subnormal tolerance.
func (t *Table) lookupRare(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	frac, exp := math.Frexp(v)
	return math.Ldexp(math.Round(frac*t.invGrid)*t.grid, exp)
}

// Lookup returns the canonical representative of c, canonicalizing each
// component independently.
func (t *Table) Lookup(c Complex) Complex {
	return Complex{t.LookupFloat(c.Re), t.LookupFloat(c.Im)}
}
