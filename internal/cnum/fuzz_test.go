package cnum

import (
	"math"
	"testing"
)

// referenceLookupFloat is LookupFloat as it was when canonicalization went
// through math.Frexp and math.Ldexp, kept verbatim (with the table fields
// as arguments) so the bit-level path can be checked against it.
func referenceLookupFloat(tol, invGrid, grid, v float64) float64 {
	if math.Abs(v) <= tol {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp with |frac| in [0.5, 1)
	key := int64(math.Round(frac * invGrid))
	return math.Ldexp(float64(key)*grid, exp)
}

var fuzzTolerances = []float64{1e-7, 1e-10, 1e-13}

// FuzzLookupFloat checks LookupFloat on arbitrary bit patterns at each
// tolerance: bit identity with the reference for finite inputs,
// idempotence, the zero flush, and non-finite values passing through.
func FuzzLookupFloat(f *testing.F) {
	for _, v := range []float64{
		0, 1, -1, 0.5, 1 / math.Sqrt2, -0.7071067811865476, 1e-9, 1e-11, 3e-14,
		1 - 1e-15, 0.5 - 1e-17, math.MaxFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		for _, tol := range fuzzTolerances {
			tab := NewTableTol(tol)
			got := tab.LookupFloat(v)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				if math.Float64bits(got) != bits {
					t.Fatalf("tol %g: LookupFloat(%v) = %v, want it unchanged", tol, v, got)
				}
				continue
			}
			if want := referenceLookupFloat(tab.tol, tab.invGrid, tab.grid, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tol %g: LookupFloat(%v) = %v (%#x), reference %v (%#x)",
					tol, v, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if again := tab.LookupFloat(got); math.Float64bits(again) != math.Float64bits(got) {
				t.Fatalf("tol %g: not idempotent on %v: %v then %v", tol, v, got, again)
			}
			if math.Abs(v) <= tol && math.Float64bits(got) != 0 {
				t.Fatalf("tol %g: %v inside the zero floor canonicalized to %v", tol, v, got)
			}
		}
	})
}

// TestLookupFloatMatchesReferenceAtEdges walks the exponent range and the
// grid boundaries that the fuzzer reaches only by luck.
func TestLookupFloatMatchesReferenceAtEdges(t *testing.T) {
	for _, tol := range fuzzTolerances {
		tab := NewTableTol(tol)
		for e := -1074; e <= 1023; e++ {
			base := math.Ldexp(1, e)
			for _, v := range []float64{
				base, -base, math.Nextafter(base, 0), math.Nextafter(base, math.Inf(1)),
				base * (1 - tab.grid/2), base * (1 - tab.grid/4), base * 0.75,
			} {
				got := tab.LookupFloat(v)
				want := referenceLookupFloat(tab.tol, tab.invGrid, tab.grid, v)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("tol %g: LookupFloat(%v) = %v, reference %v", tol, v, got, want)
				}
			}
		}
	}
}
