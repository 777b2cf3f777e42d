package rng

import (
	"fmt"
	"math"
	"testing"

	"weaksim/internal/stats"
)

// binomialPMF is the exact Binomial(n, p) pmf by log-gamma, the reference
// for the large-n chi-square tests.
func binomialPMF(n int, p float64) []float64 {
	pmf := make([]float64, n+1)
	lp, lq := math.Log(p), math.Log1p(-p)
	ln, _ := math.Lgamma(float64(n + 1))
	for k := range pmf {
		lk, _ := math.Lgamma(float64(k + 1))
		lnk, _ := math.Lgamma(float64(n - k + 1))
		pmf[k] = math.Exp(ln - lk - lnk + float64(k)*lp + float64(n-k)*lq)
	}
	return pmf
}

// TestBinomialMatchesPMF: the full pmf passes chi-square (p ≥ 1e-6)
// against draws in both regimes — inversion below mean 10, BTRD above —
// for n from 1 to 65,536 (a sampling chunk) and p near 0, at ½, near 1 and
// on both sides of the regime boundary, and each sample's mean is within
// six standard errors of np.
func TestBinomialMatchesPMF(t *testing.T) {
	draws := 100000
	if testing.Short() {
		draws = 20000
	}
	cases := []struct {
		n int
		p float64
	}{
		{1, 0.5}, {2, 0.3}, {7, 0.5}, {19, 0.5}, {20, 0.5}, {21, 0.5},
		{40, 0.5}, {1000, 0.5}, {65536, 0.5},
		{65536, 1e-6}, {65536, 1e-4}, {65536, 1e-3}, {1000, 1e-3}, {16, 0.001},
		{65536, 1 - 1e-6}, {65536, 1 - 1e-3}, {1000, 0.999}, {16, 0.999},
		{99, 0.1}, {100, 0.1}, {101, 0.1}, {1001, 0.0099}, {1001, 0.01},
		{333, 1.0 / 3}, {65536, 0.7071}, {150, 0.37}, {12345, 0.0625},
	}
	for i, tc := range cases {
		name := fmt.Sprintf("n=%d,p=%g", tc.n, tc.p)
		g := New(uint64(1000 + i))
		counts := map[uint64]int{}
		sum := 0.0
		for range draws {
			k := g.Binomial(tc.n, tc.p)
			if k < 0 || k > tc.n {
				t.Fatalf("%s: draw %d outside [0, n]", name, k)
			}
			counts[uint64(k)]++
			sum += float64(k)
		}
		res, err := stats.ChiSquareGOF(counts, binomialPMF(tc.n, tc.p), draws)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 1e-6 {
			t.Errorf("%s: chi-square rejects: stat %.1f, dof %d, p %g", name, res.Statistic, res.DoF, res.PValue)
		}
		mean, sd := float64(tc.n)*tc.p, math.Sqrt(float64(tc.n)*tc.p*(1-tc.p)/float64(draws))
		if d := math.Abs(sum/float64(draws) - mean); d > 6*sd+1e-9 {
			t.Errorf("%s: sample mean %.4f, want %.4f ± %.4f", name, sum/float64(draws), mean, 6*sd)
		}
	}
}

// TestBinomialInversionExact: for every n ≤ 8, the inversion maps each
// uniform u to the k whose cdf interval [F(k−1), F(k)) holds it, with the
// cdf taken from an exact enumeration of all 2ⁿ trial sequences, so each k
// gets exactly its probability mass; points within 1e-12 of an interval
// edge are left to rounding. Binomial(n, q) for q > ½ is n − Binomial(n,
// 1−q) on the same generator.
func TestBinomialInversionExact(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for _, p := range []float64{1e-3, 0.1, 0.25, 1.0 / 3, 0.5} {
			pmf := make([]float64, n+1)
			for seq := 0; seq < 1<<n; seq++ {
				k := 0
				for b := seq; b != 0; b &= b - 1 {
					k++
				}
				pmf[k] += math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
			}
			cdf := make([]float64, n+1)
			acc := 0.0
			for k, f := range pmf {
				acc += f
				cdf[k] = acc
			}
			var us []float64
			for i := range 4096 {
				us = append(us, (float64(i)+0.5)/4096)
			}
			for _, c := range cdf[:n] {
				for _, u := range []float64{c - 1e-11, c + 1e-11} {
					if u < 1 {
						us = append(us, u)
					}
				}
			}
			for _, u := range us {
				want := 0
				for want < n && u >= cdf[want] {
					want++
				}
				got, ok := binvAt(n, p, u)
				near := false
				for _, c := range cdf {
					near = near || math.Abs(u-c) < 1e-12
				}
				if !near && (!ok || got != want) {
					t.Fatalf("n=%d p=%g u=%.15f: inversion gives (%d, %v), cdf says %d", n, p, u, got, ok, want)
				}
			}
			if q := 1 - p; q > 0.5 {
				for seed := range uint64(64) {
					a, b := New(seed), New(seed)
					if x, y := a.Binomial(n, q), b.Binomial(n, 1-q); x != n-y {
						t.Fatalf("n=%d q=%g seed %d: Binomial(n, q) = %d, n − Binomial(n, 1−q) = %d", n, q, seed, x, n-y)
					}
				}
			}
		}
	}
}

// TestBinomialEdges: degenerate trials and probabilities answer without a
// draw, and the boundary probabilities stay in range.
func TestBinomialEdges(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{0, 0.5, 0}, {-3, 0.5, 0}, {10, 0, 0}, {10, -1, 0}, {10, math.NaN(), 0},
		{10, 1, 10}, {10, 2, 10}, {10, math.Inf(1), 10}, {10, math.Inf(-1), 0},
	} {
		g, ref := New(5), New(5)
		if got := g.Binomial(tc.n, tc.p); got != tc.want {
			t.Errorf("Binomial(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
		if g.Uint64() != ref.Uint64() {
			t.Errorf("Binomial(%d, %g) took a draw", tc.n, tc.p)
		}
	}
	g := New(6)
	for range 1000 {
		if k := g.Binomial(1<<20, 5e-324); k != 0 {
			t.Fatalf("Binomial(2^20, subnormal) = %d", k)
		}
		if k := g.Binomial(1<<20, 1-0x1p-53); k < 1<<20-1 {
			t.Fatalf("Binomial(2^20, 1−2^-53) = %d", k)
		}
	}
}

// TestStirlingTail: the table and the series both match ln k! less
// Stirling's formula, computed from math.Lgamma, the series within its
// first omitted term 1/1680x⁷.
func TestStirlingTail(t *testing.T) {
	for k := 0; k <= 200; k++ {
		lf, _ := math.Lgamma(float64(k + 1))
		x := float64(k + 1)
		want := lf - ((x-0.5)*math.Log(x) - x + 0.5*math.Log(2*math.Pi))
		if got := stirlingTail(float64(k)); math.Abs(got-want) > 1/(1680*math.Pow(x, 7))+1e-12 {
			t.Errorf("stirlingTail(%d) = %.17g, want %.17g", k, got, want)
		}
	}
}

// FuzzBinomial: for any n, p (every float64 bit pattern, NaN, subnormals
// and infinities included) and seed, Binomial returns a count in [0, n]
// without hanging or panicking.
func FuzzBinomial(f *testing.F) {
	for _, p := range []float64{0, 5e-324, 0x1p-1074 * 3, 1e-300, 0.5, 1 - 0x1p-53, 1, math.NaN(), math.Inf(1), -0.5} {
		f.Add(uint32(65536), math.Float64bits(p), uint64(1))
		f.Add(uint32(3), math.Float64bits(p), uint64(2))
	}
	f.Fuzz(func(t *testing.T, n uint32, pbits uint64, seed uint64) {
		p := math.Float64frombits(pbits)
		g := New(seed)
		for range 8 {
			if k := g.Binomial(int(n), p); k < 0 || k > int(n) {
				t.Fatalf("Binomial(%d, %g) = %d", n, p, k)
			}
		}
	})
}
