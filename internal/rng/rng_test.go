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

// TestSamplingDrawsMatchMathRand: Uint64 and Float64, which call the PCG
// directly, return what math/rand/v2's Rand returns over the same state —
// Uint64 also the pinned values it returned when it called through the
// Rand — and interleaving them with IntN and Uint64N leaves the whole
// sequence unchanged.
func TestSamplingDrawsMatchMathRand(t *testing.T) {
	pins := map[uint64][3]uint64{
		0:          {0x7655d15c919ef624, 0xb87a4210b4edc8b7, 0xfd6b59475f0cb751},
		42:         {0x743a6a4551a9b830, 0xf9015ec7f256d640, 0xb818d59725fa3c01},
		^uint64(0): {0x68f932d87a2d2fbe, 0x486ac681367e3694, 0xd8763762af0c84be},
	}
	for seed, want := range pins {
		g := New(seed)
		for i, w := range want {
			if got := g.Uint64(); got != w {
				t.Fatalf("seed %d draw %d: Uint64 %#x, pinned %#x", seed, i, got, w)
			}
		}
	}
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		ref := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		g := New(seed)
		for round := 0; round < 64; round++ {
			if x, y := g.Uint64(), ref.Uint64(); x != y {
				t.Fatalf("seed %d round %d: Uint64 %#x, math/rand/v2 %#x", seed, round, x, y)
			}
			if x, y := g.Float64(), ref.Float64(); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("seed %d round %d: Float64 %v, math/rand/v2 %v", seed, round, x, y)
			}
			if x, y := g.IntN(1000), ref.IntN(1000); x != y {
				t.Fatalf("seed %d round %d: IntN diverges", seed, round)
			}
			if x, y := g.Uint64N(7), ref.Uint64N(7); x != y {
				t.Fatalf("seed %d round %d: Uint64N diverges", seed, round)
			}
		}
	}
}

// TestSplitMixWalksTheSequence: SplitMix's outputs are the SplitMix64
// sequence (the published first outputs from state 0), and its state
// advances by the golden gamma.
func TestSplitMixWalksTheSequence(t *testing.T) {
	w := uint64(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		next, out := SplitMix(w)
		if out != want {
			t.Fatalf("output %d: %#x, want %#x", i, out, want)
		}
		if next != w+goldenGamma {
			t.Fatalf("output %d: state %#x, want %#x", i, next, w+goldenGamma)
		}
		w = next
	}
}
