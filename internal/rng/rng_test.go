package rng

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := true
	d := New(42)
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ≈0.5", mean)
	}
}

func TestIntNAndUint64N(t *testing.T) {
	r := New(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.IntN(5)
		if v < 0 || v >= 5 {
			t.Fatalf("IntN out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("IntN(5) hit %d values in 1000 draws", len(seen))
	}
	for i := 0; i < 1000; i++ {
		if v := r.Uint64N(3); v >= 3 {
			t.Fatalf("Uint64N out of range: %d", v)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(11)
	child := parent.Split()
	// The child must be usable and deterministic given the parent state.
	parent2 := New(11)
	child2 := parent2.Split()
	for i := 0; i < 10; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

// TestFill53MatchesFloat64: Fill53 yields the integers behind Float64 draw
// for draw, Float64 still equals math/rand/v2's Float64 over the same PCG
// state, and interleaving block draws with Uint64, IntN and Uint64N leaves
// the whole sequence unchanged.
func TestFill53MatchesFloat64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		ref := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		a, b := New(seed), New(seed)
		for round, width := range []int{1, 7, 64, 0, 513, 3} {
			buf := make([]uint64, width)
			b.Fill53(buf)
			for i, k := range buf {
				want := a.Float64()
				if k>>53 != 0 {
					t.Fatalf("seed %d round %d draw %d: %#x is wider than 53 bits", seed, round, i, k)
				}
				if got := float64(k) / (1 << 53); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d round %d draw %d: Fill53 gives %v, Float64 %v", seed, round, i, got, want)
				}
				if r := ref.Float64(); math.Float64bits(r) != math.Float64bits(want) {
					t.Fatalf("seed %d round %d draw %d: Float64 %v, math/rand/v2 %v", seed, round, i, want, r)
				}
			}
			if x, y := a.Uint64(), b.Uint64(); x != y || x != ref.Uint64() {
				t.Fatalf("seed %d round %d: Uint64 after the block diverges", seed, round)
			}
			if x, y := a.IntN(1000), b.IntN(1000); x != y || x != ref.IntN(1000) {
				t.Fatalf("seed %d round %d: IntN after the block diverges", seed, round)
			}
			if x, y := a.Uint64N(7), b.Uint64N(7); x != y || x != ref.Uint64N(7) {
				t.Fatalf("seed %d round %d: Uint64N after the block diverges", seed, round)
			}
		}
	}
}
