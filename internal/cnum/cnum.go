// Package cnum implements complex arithmetic on explicit structs together
// with tolerance-based weight canonicalization.
//
// Decision-diagram packages hash nodes by their edge weights, so two weights
// that are "equal up to floating-point noise" must compare as identical Go
// values. The Table type canonicalizes every weight that enters a decision
// diagram by rounding it to a fixed relative grid — a stateless stand-in
// for the value tables of Zulehner, Hillmich, and Wille, "How to
// efficiently handle complex values?" (ICCAD 2019), reference [24] of the
// reproduced paper.
package cnum

import (
	"fmt"
	"math"
)

// Complex is a complex number stored as an explicit pair of float64
// components. Using a struct (rather than the built-in complex128) keeps the
// representation transparent for hashing and interning and mirrors the
// implementation the paper builds on.
type Complex struct {
	Re, Im float64
}

// Common constants. They are variables only because Go does not allow
// struct-typed constants; do not mutate them.
var (
	Zero     = Complex{0, 0}
	One      = Complex{1, 0}
	I        = Complex{0, 1}
	MinusOne = Complex{-1, 0}
	// SqrtHalf is 1/sqrt(2), the ubiquitous Hadamard factor.
	SqrtHalf = Complex{math.Sqrt2 / 2, 0}
)

// New returns the complex number re + im·i.
func New(re, im float64) Complex { return Complex{re, im} }

// FromPolar returns the complex number r·e^{iθ}.
func FromPolar(r, theta float64) Complex {
	return Complex{r * math.Cos(theta), r * math.Sin(theta)}
}

// Add returns c + d.
func (c Complex) Add(d Complex) Complex { return Complex{c.Re + d.Re, c.Im + d.Im} }

// Sub returns c - d.
func (c Complex) Sub(d Complex) Complex { return Complex{c.Re - d.Re, c.Im - d.Im} }

// Mul returns c · d.
func (c Complex) Mul(d Complex) Complex {
	return Complex{c.Re*d.Re - c.Im*d.Im, c.Re*d.Im + c.Im*d.Re}
}

// Div returns c / d. Division by an exact zero yields (NaN, NaN), matching
// the semantics of the built-in complex128 division.
func (c Complex) Div(d Complex) Complex {
	den := d.Re*d.Re + d.Im*d.Im
	return Complex{(c.Re*d.Re + c.Im*d.Im) / den, (c.Im*d.Re - c.Re*d.Im) / den}
}

// Neg returns -c.
func (c Complex) Neg() Complex { return Complex{-c.Re, -c.Im} }

// Conj returns the complex conjugate of c.
func (c Complex) Conj() Complex { return Complex{c.Re, -c.Im} }

// Scale returns s·c for a real scalar s.
func (c Complex) Scale(s float64) Complex { return Complex{s * c.Re, s * c.Im} }

// Abs2 returns |c|², the squared magnitude. This is the probability weight
// of an amplitude and is used throughout the sampling code.
func (c Complex) Abs2() float64 { return c.Re*c.Re + c.Im*c.Im }

// Abs returns |c|.
func (c Complex) Abs() float64 { return math.Hypot(c.Re, c.Im) }

// Phase returns the argument of c in (-π, π].
func (c Complex) Phase() float64 { return math.Atan2(c.Im, c.Re) }

// IsZero reports whether both components are exactly zero.
func (c Complex) IsZero() bool { return c.Re == 0 && c.Im == 0 }

// ApproxZero reports whether |c| is within tol of zero, component-wise.
func (c Complex) ApproxZero(tol float64) bool {
	return math.Abs(c.Re) <= tol && math.Abs(c.Im) <= tol
}

// ApproxEq reports whether c and d agree within tol, component-wise.
func (c Complex) ApproxEq(d Complex, tol float64) bool {
	return math.Abs(c.Re-d.Re) <= tol && math.Abs(c.Im-d.Im) <= tol
}

// ToComplex128 converts to the built-in complex type.
func (c Complex) ToComplex128() complex128 { return complex(c.Re, c.Im) }

// FromComplex128 converts from the built-in complex type.
func FromComplex128(z complex128) Complex { return Complex{real(z), imag(z)} }

// String renders c in a compact a+bi form.
func (c Complex) String() string {
	switch {
	case c.Im == 0:
		return fmt.Sprintf("%g", c.Re)
	case c.Re == 0:
		return fmt.Sprintf("%gi", c.Im)
	case c.Im < 0:
		return fmt.Sprintf("%g-%gi", c.Re, -c.Im)
	default:
		return fmt.Sprintf("%g+%gi", c.Re, c.Im)
	}
}
