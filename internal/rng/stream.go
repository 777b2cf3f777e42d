package rng

// Splittable streams for chunked sampling.
//
// Every count-producing batch is cut into fixed-size chunks (core.ChunkShots)
// and chunk k draws from its own stream, so chunks can be drawn by any
// worker, in any order, or resumed after a crash, while the whole batch
// stays a pure function of the user-visible seed. Stream(seed, k) derives
// chunk k's generator with a SplitMix64-style finalizer over (seed, k): the
// derived PCG seeds are scrambled far apart for adjacent k, so the streams
// are independent for every practical purpose (see
// TestStreamsPairwiseNonOverlapping).
//
// Two properties are load-bearing and pinned by tests:
//
//  1. Stream(seed, 0) is exactly New(seed): a one-chunk batch consumes the
//     same random sequence as the sequential sampler.
//  2. Stream is a pure function of (seed, k): no shared state, so chunk
//     streams can be constructed concurrently and a chunk can be re-derived
//     without replaying the draws of other chunks.

// goldenGamma is the SplitMix64 increment (2^64 / φ, odd).
const goldenGamma = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 finalizer (Steele, Lea, Flood 2014): a
// bijective avalanche mix used to decorrelate sequential inputs.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix steps a SplitMix64 sequence: it advances state w by the golden
// gamma and returns the new state and that state's output. Feeding each
// returned state back in walks the sequence from any starting w.
func SplitMix(w uint64) (next, out uint64) {
	w += goldenGamma
	return w, splitmix64(w)
}

// Stream returns chunk k's generator for the given batch seed, a pure
// function of (seed, k). Stream(seed, 0) is identical to New(seed); streams
// for distinct k are derived through two rounds of the SplitMix64 finalizer
// and do not overlap in practice (property-tested over 10^6 draws per
// stream). k must be non-negative.
func Stream(seed uint64, k int) *RNG {
	if k < 0 {
		panic("rng: negative stream index")
	}
	if k == 0 {
		return New(seed)
	}
	// Jump far away from both the base seed and neighbouring chunks:
	// advance the seed by k golden-ratio steps, then avalanche twice,
	// re-injecting k between rounds so (seed, k) pairs with equal sums
	// still separate.
	z := splitmix64(seed + uint64(k)*goldenGamma)
	z = splitmix64(z ^ uint64(k))
	return New(z)
}
