package core

import (
	"fmt"
	"math"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
	"weaksim/internal/sim"
	"weaksim/internal/stats"
)

// TestThreshold pins the P0 → 0.64 fixed-point conversion at its edges.
func TestThreshold(t *testing.T) {
	for _, tc := range []struct {
		name string
		p0   float64
		want uint64
	}{
		{"zero", 0, 0},
		{"negative zero", math.Copysign(0, -1), 0},
		{"negative", -0.25, 0},
		{"NaN", math.NaN(), 0},
		{"one", 1, math.MaxUint64},
		{"above one", 1 + 1e-12, math.MaxUint64},
		{"infinity", math.Inf(1), math.MaxUint64},
		{"2^-60", math.Ldexp(1, -60), 16},
		{"half", 0.5, 1 << 63},
		{"largest below one", math.Nextafter(1, 0), math.MaxUint64 - (1<<11 - 1)},
	} {
		if got := threshold(tc.p0); got != tc.want {
			t.Errorf("%s: threshold(%v) = %#x, want %#x", tc.name, tc.p0, got, tc.want)
		}
	}
}

// TestSplitBias: a split of any interval the decoder splits (r ≥ 2^32)
// tiles it into [0, s) for branch 0 and [s, r) for branch 1, and branch 0's
// share s/r is within 2^-31 of P0.
func TestSplitBias(t *testing.T) {
	for _, p0 := range []float64{0, math.Ldexp(1, -40), 0.1, 1 / 3.0, 0.5, 0.999, 1} {
		th := threshold(p0)
		for _, r := range []uint64{1 << 32, 1<<32 + 12345, 3 << 40, math.MaxUint64} {
			// The interval's last point is on branch 1, which keeps r − s.
			bit, x, r1 := split(th, r-1, r)
			if bit != 1 || x != r1-1 {
				t.Fatalf("P0 %v, r %#x: last point decodes to bit %d at %d of %d", p0, r, bit, x, r1)
			}
			s := r - r1
			if bit, x, rs := split(th, s, r); bit != 1 || x != 0 || rs != r1 {
				t.Fatalf("P0 %v, r %#x: split point %d decodes to bit %d at %d of %d", p0, r, s, bit, x, rs)
			}
			if s > 0 {
				if bit, x, r0 := split(th, s-1, r); bit != 0 || x != s-1 || r0 != s {
					t.Fatalf("P0 %v, r %#x: point %d decodes to bit %d at %d of %d", p0, r, s-1, bit, x, r0)
				}
			}
			if b := math.Abs(float64(s)/float64(r) - p0); b > math.Ldexp(1, -31) {
				t.Errorf("P0 %v, r %#x: branch 0's share off by %g", p0, r, b)
			}
		}
	}
}

// TestZeroEdgeFallbackKeepsDecoder: on a hand-built snapshot whose root's
// 0-edge is cut to a zero edge (P0 left at 1/2, as slack would), every walk
// the intact snapshot sends down branch 0 falls back to branch 1, counts a
// renorm, and decodes the levels below exactly as the intact walk does: the
// fallback leaves the decoder's state alone.
func TestZeroEdgeFallbackKeepsDecoder(t *testing.T) {
	const n = 6
	vec := make([]cnum.Complex, 1<<n)
	for i := range vec {
		vec[i] = cnum.New(1/math.Sqrt(1<<n), 0)
	}
	intact := freezeVector(t, vec, dd.NormL2Phase)
	cut := freezeVector(t, vec, dd.NormL2Phase)
	root := cut.Nodes()[cut.Root()]
	if root.Kid[0] != root.Kid[1] || root.Kid[0] < 0 {
		t.Fatalf("uniform state's root does not share one kid: %+v", root)
	}
	cut.Nodes()[cut.Root()].Kid[0] = dd.SnapZero

	a, _ := NewFrozenSampler(intact)
	b, _ := NewFrozenSampler(cut)
	const shots = 2000
	ra, rb := rng.New(5), rng.New(5)
	wantRenorms := uint64(0)
	top := uint64(1) << (n - 1)
	for i := range shots {
		g, w := b.Sample(rb), a.Sample(ra)
		if w&top == 0 {
			wantRenorms++
		}
		if g != w|top {
			t.Fatalf("shot %d: cut walk %06b, intact %06b", i, g, w)
		}
	}
	if wantRenorms == 0 || b.Renorms() != wantRenorms {
		t.Fatalf("renorms %d, want %d (one per intact branch-0 walk)", b.Renorms(), wantRenorms)
	}
	if a.Renorms() != 0 {
		t.Fatalf("intact snapshot took %d fallbacks", a.Renorms())
	}
}

// TestOneDrawPerShot: Sample takes exactly one Uint64 per shot from its
// generator, whatever the state's entropy — after N shots the next draw is
// a fresh generator's (N+1)-th — and Counts, which splits, leaves its
// generator exactly where the reference splitter over the live diagram
// leaves an equal one, with equal counts.
func TestOneDrawPerShot(t *testing.T) {
	for _, name := range []string{"running_example", "ghz_64", "qft_6", "bv_6", "supremacy_3x3_8"} {
		live, fs := liveCircuit(t, name, dd.NormL2Phase)
		for _, shots := range []int{0, 1, 33, CtxCheckShots + 1} {
			checkDrawBudget(t, name+"/Sample", shots, func(r *rng.RNG) {
				for range shots {
					fs.Sample(r)
				}
			})
			checkSplitMatchesReference(t, name+"/Counts", live, fs, 77, shots)
		}
	}
}

// checkDrawBudget runs draw on a generator and requires it to have taken
// exactly shots Uint64s.
func checkDrawBudget(t *testing.T, label string, shots int, draw func(*rng.RNG)) {
	t.Helper()
	const seed = 77
	r, ref := rng.New(seed), rng.New(seed)
	draw(r)
	for range shots {
		ref.Uint64()
	}
	if got, want := r.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("%s, %d shots: generator is not %d draws in", label, shots, shots)
	}
}

// TestBornTableI: on every Table I row of at most 18 qubits, 2^20 shots
// pass chi-square (p ≥ 1e-6) against the exact Born
// distribution from a state-vector simulation, and their total variation
// distance stays within the bound an exact sampler meets: E[TVD] ≤
// ½Σ√(p(1−p)/N), plus a McDiarmid margin of √(ln(10^6)/2N) for a 10^-6
// false alarm.
func TestBornTableI(t *testing.T) {
	const shots = 1 << 20
	margin := math.Sqrt(math.Log(1e6) / (2 * shots))
	// The Table I rows of at most 18 qubits; the others have 21 or more.
	for _, name := range []string{"qft_16", "shor_33_2", "shor_55_2", "jellium_2x2", "jellium_3x3", "supremacy_4x4_10"} {
		c, err := algo.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.NQubits > 18 {
			t.Fatalf("%s has %d qubits", name, c.NQubits)
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && c.NQubits > 8 {
				t.Skip("slow row under -short")
			}
			vs, err := sim.NewVector(c, 18)
			if err != nil {
				t.Fatal(err)
			}
			st, err := vs.Run()
			if err != nil {
				t.Fatal(err)
			}
			probs := st.Probabilities()
			bound := margin
			for _, p := range probs {
				bound += math.Sqrt(p*(1-p)/shots) / 2
			}
			ds, err := sim.NewDD(c, sim.WithManagerOptions(dd.WithNormalization(dd.NormL2Phase)))
			if err != nil {
				t.Fatal(err)
			}
			state, err := ds.Run()
			if err != nil {
				t.Fatal(err)
			}
			fs, err := NewFrozenSampler(freezeState(t, ds.Manager(), state))
			if err != nil {
				t.Fatal(err)
			}
			counts, err := CountsParallel(fs, 2020, shots, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := stats.ChiSquareGOF(counts, probs, shots)
			if err != nil {
				t.Fatal(err)
			}
			if res.PValue < 1e-6 {
				t.Errorf("chi-square rejects: stat %.1f, dof %d, p %g", res.Statistic, res.DoF, res.PValue)
			}
			tvd, err := stats.TotalVariation(stats.EmpiricalDistribution(counts, uint64(len(probs)), shots), probs)
			if err != nil {
				t.Fatal(err)
			}
			if tvd > bound {
				t.Errorf("TVD %.4f above an exact sampler's bound %.4f", tvd, bound)
			}
		})
	}
}

// TestWideUniformState: on H^⊗48 every shot's interval narrows below 2^32
// and refills at least once, and each qubit's marginal and each adjacent
// pair's joint still pass chi-square against uniform.
func TestWideUniformState(t *testing.T) {
	const n, shots = 48, 1 << 16
	c := circuit.New(n, "h48")
	for q := 0; q < n; q++ {
		c.H(q)
	}
	fs, err := NewFrozenSampler(freezeOf(t, c, dd.NormL2Phase))
	if err != nil {
		t.Fatal(err)
	}
	// Walk draws by hand through the sampler's own table: every one refills.
	r := rng.New(48)
	for shot := 0; shot < 100; shot++ {
		x := r.Uint64()
		rr, w, cur, refills := uint64(math.MaxUint64), x, fs.root, 0
		for range n {
			if rr < refillBelow {
				refills++
			}
			nd := &fs.walk[cur]
			var bit uint64
			bit, x, rr, w = step(nd.T, x, rr, w)
			cur = nd.Kid[bit]
		}
		if refills == 0 {
			t.Fatalf("shot %d never refilled", shot)
		}
	}

	counts := Counts(fs, r, shots)
	for q := 0; q < n; q++ {
		checkUniform(t, fmt.Sprintf("qubit %d", q), counts, shots, q, 1)
		if q+1 < n {
			checkUniform(t, fmt.Sprintf("qubits %d,%d", q, q+1), counts, shots, q, 2)
		}
	}
}

// checkUniform tests bits [lo, lo+width) of the counted outcomes against
// uniform.
func checkUniform(t *testing.T, label string, counts map[uint64]int, shots, lo, width int) {
	t.Helper()
	window := map[uint64]int{}
	for idx, c := range counts {
		window[idx>>uint(lo)&(1<<uint(width)-1)] += c
	}
	probs := make([]float64, 1<<uint(width))
	for i := range probs {
		probs[i] = 1 / float64(len(probs))
	}
	res, err := stats.ChiSquareGOF(window, probs, shots)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 1e-6 {
		t.Errorf("%s: chi-square rejects uniform: stat %.1f, p %g", label, res.Statistic, res.PValue)
	}
}
