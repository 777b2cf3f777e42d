package rng

import "testing"

// streamDraws is the per-stream draw count of the non-overlap property test.
// The full 10^6 draws per stream run in the default suite; -short (used by
// the race-detector pass) scales down to keep the suite fast.
func streamDraws(t *testing.T) int {
	if testing.Short() {
		return 200000
	}
	return 1000000
}

// TestStreamZeroIsSequential pins the one-chunk reproducibility guarantee:
// Stream(seed, 0) must emit exactly the sequence of New(seed).
func TestStreamZeroIsSequential(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63, ^uint64(0)} {
		a := New(seed)
		b := Stream(seed, 0)
		for i := 0; i < 1000; i++ {
			if got, want := b.Uint64(), a.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Stream(seed,0) = %d, New(seed) = %d", seed, i, got, want)
			}
		}
	}
}

// TestStreamIsPureFunction: the same (seed, k) always yields the same
// sequence, independent of any other stream's construction or consumption.
func TestStreamIsPureFunction(t *testing.T) {
	a := Stream(7, 3)
	// Construct and burn unrelated streams in between; they must not
	// perturb a re-derived copy.
	for k := 0; k < 8; k++ {
		s := Stream(7, k)
		for i := 0; i < 100; i++ {
			s.Uint64()
		}
	}
	b := Stream(7, 3)
	first := a.Uint64()
	if got := b.Uint64(); got != first {
		t.Fatalf("Stream(7,3) not a pure function of (seed,k): %d vs %d", got, first)
	}
}

// TestStreamsPairwiseNonOverlapping: streams for distinct workers share
// (practically) no values over 10^6 draws each. Truly independent uniform
// 64-bit streams collide with probability ~n²/2^64 ≈ 5·10^-7 at this size,
// while an overlapping (shifted or identical) pair would share on the order
// of the full draw count — so a tiny threshold separates the two cleanly.
func TestStreamsPairwiseNonOverlapping(t *testing.T) {
	const workers = 4
	draws := streamDraws(t)
	seen := make(map[uint64]uint8, workers*draws)
	shared := 0
	for k := 0; k < workers; k++ {
		s := Stream(11, k)
		bit := uint8(1) << uint(k)
		for i := 0; i < draws; i++ {
			v := s.Uint64()
			if prev, ok := seen[v]; ok && prev&bit == 0 {
				shared++
			}
			seen[v] |= bit
		}
	}
	if shared > 2 {
		t.Fatalf("streams share %d values over %d draws each — overlapping streams", shared, draws)
	}
}

// TestStreamsDiffer: distinct worker indices yield distinct sequences, and
// distinct seeds yield distinct streams for the same worker.
func TestStreamsDiffer(t *testing.T) {
	same := func(a, b *RNG) bool {
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	for k := 1; k < 8; k++ {
		if same(Stream(5, 0), Stream(5, k)) {
			t.Errorf("Stream(5,0) and Stream(5,%d) coincide", k)
		}
	}
	if same(Stream(5, 2), Stream(6, 2)) {
		t.Error("Stream(5,2) and Stream(6,2) coincide")
	}
}
