package rng

import "math"

// binvMaxMean is the mean n·min(p, 1−p) below which Binomial inverts the
// cdf; at and above it, BTRD's rejection is cheaper than the inversion's
// walk of about mean+1 pmf terms.
const binvMaxMean = 10

// Binomial returns a draw from Binomial(n, p), the number of successes in n
// independent trials of probability p. It is exact up to floating-point
// rounding: by inversion (BINV, Kachitvichyanukul & Schmeiser 1988) when
// n·min(p, 1−p) < 10, and by transformed rejection with decomposition
// above that (BTRD, Hörmann 1993, "The generation of binomial random
// variates"). Its uniforms come from Float64. n ≤ 0, p ≤ 0 and a NaN p
// give 0, and p ≥ 1 gives n, without a draw. The result is always in
// [0, max(n, 0)].
func (g *RNG) Binomial(n int, p float64) int {
	switch {
	case n <= 0 || !(p > 0):
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		// 1−p is exact for p in (½, 1).
		return n - g.binomialLow(n, 1-p)
	}
	return g.binomialLow(n, p)
}

// binomialLow draws Binomial(n, p) for n > 0 and 0 < p ≤ ½.
func (g *RNG) binomialLow(n int, p float64) int {
	if float64(n)*p < binvMaxMean {
		return g.binv(n, p)
	}
	return g.btrd(n, p)
}

// binv inverts the cdf, redrawing when binvAt misses.
func (g *RNG) binv(n int, p float64) int {
	for {
		if k, ok := binvAt(n, p, g.Float64()); ok {
			return k
		}
	}
}

// binvAt is the inversion for one uniform u: it subtracts the pmf terms
// f(0), f(1), … from u until u falls below the next, so k is returned for
// u in [F(k−1), F(k)), an interval of width f(k). The terms follow the
// recurrence f(k+1) = f(k)·((n+1)/(k+1) − 1)·p/q from f(0) = qⁿ. Should
// rounding leave u at or above every partial sum, it reports a miss, and
// binv redraws: that conditions on the (tiny) event missed instead of
// piling its mass onto one k. A term that underflows to 0 ends the walk,
// since every later term is 0 too.
func binvAt(n int, p, u float64) (int, bool) {
	s := p / (1 - p)
	a := float64(n+1) * s
	f := math.Exp(float64(n) * math.Log1p(-p))
	for k := 0; k <= n && f > 0; k++ {
		if u < f {
			return k, true
		}
		u -= f
		f *= a/float64(k+1) - s
	}
	return 0, false
}

// btrd is Hörmann's BTRD for n·p ≥ 10 and p ≤ ½, step numbers as in the
// paper. A point (u, v) uniform on [−½, ½) × [0, 1) maps to the candidate
// k = ⌊(2a/(½−|u|) + b)·u + c⌋ under a hat over the pmf, and is accepted
// when v, scaled to the hat, lies under f(k)/f(m), m the mode. Step 1 takes
// the box |u| ≤ 0.43, v ≤ v_r, where acceptance is certain, from the first
// uniform alone; step 2 draws the rest of the rectangle; step 3 decides by
// the pmf ratio, recursively near the mode (3.1) and through a squeeze and
// Stirling's series away from it (3.2–3.4).
func (g *RNG) btrd(n int, p float64) int {
	nf := float64(n)
	q := 1 - p
	m := math.Floor((nf + 1) * p)
	r := p / q
	nr := (nf + 1) * r
	npq := nf * p * q
	sq := math.Sqrt(npq)
	b := 1.15 + 2.53*sq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	alpha := (2.83 + 5.1/b) * sq
	vr := 0.92 - 4.2/b
	urvr := 0.86 * vr
	for {
		// Step 1.
		v := g.Float64()
		if v <= urvr {
			u := v/vr - 0.43
			return int(math.Floor((2*a/(0.5-math.Abs(u))+b)*u + c))
		}
		// Step 2.
		var u float64
		if v >= vr {
			u = g.Float64() - 0.5
		} else {
			u = v/vr - 0.93
			u = math.Copysign(0.5, u) - u
			v = g.Float64() * vr
		}
		// Step 3.0.
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if k < 0 || k > nf {
			continue
		}
		v *= alpha / (a/(us*us) + b)
		km := math.Abs(k - m)
		if km <= 15 {
			// Step 3.1: f(k)/f(m) by the pmf recurrence.
			f := 1.0
			if m < k {
				for i := m + 1; i <= k; i++ {
					f *= nr/i - r
				}
			} else {
				for i := k + 1; i <= m; i++ {
					v *= nr/i - r
				}
			}
			if v <= f {
				return int(k)
			}
			continue
		}
		// Step 3.2: squeeze on ln f(k)/f(m).
		v = math.Log(v)
		rho := km / npq * (((km/3+0.625)*km+1.0/6)*km + 0.5)
		t := -km * km / (2 * npq)
		if v < t-rho {
			return int(k)
		}
		if v > t+rho {
			continue
		}
		// Steps 3.3 and 3.4: ln f(k)/f(m) through Stirling's series.
		nm := nf - m + 1
		h := (m+0.5)*math.Log((m+1)/(r*nm)) + stirlingTail(m) + stirlingTail(nf-m)
		nk := nf - k + 1
		if v <= h+(nf+1)*math.Log(nm/nk)+(k+0.5)*math.Log(nk*r/(k+1))-stirlingTail(k)-stirlingTail(nf-k) {
			return int(k)
		}
	}
}

// stirlingTails holds stirlingTail(k) for k < 10, where the series
// converges too slowly.
var stirlingTails = [10]float64{
	0.08106146679532726,
	0.04134069595540929,
	0.02767792568499834,
	0.02079067210376509,
	0.01664469118982119,
	0.01387612882307075,
	0.01189670994589177,
	0.01041126526197209,
	0.009255462182712733,
	0.008330563433362871,
}

// stirlingTail is the error of Stirling's formula for ln k!:
// ln k! − ((k+½)·ln(k+1) − (k+1) + ½·ln 2π), for integral k ≥ 0. From
// k = 10 on it is the series 1/12x − 1/360x³ + 1/1260x⁵ in x = k+1.
func stirlingTail(k float64) float64 {
	if k < 10 {
		return stirlingTails[int(k)]
	}
	x2 := 1 / ((k + 1) * (k + 1))
	return (1.0/12 - (1.0/360-x2/1260)*x2) / (k + 1)
}
