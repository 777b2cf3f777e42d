// Package core implements weak simulation — drawing measurement samples
// from a strongly-simulated quantum state — which is the contribution of
// the reproduced paper (Hillmich, Markov, Wille, DAC 2020).
//
// Two families of samplers are provided:
//
//   - Vector-based (paper Section III): the measurement distribution is an
//     explicit array of 2^n probabilities. PrefixSampler precomputes prefix
//     sums and draws each sample with a binary search in O(n) time;
//     LinearSampler scans the array per sample (the paper's slow baseline);
//     AliasSampler is an O(1)-per-sample ablation using Walker's alias
//     method.
//
//   - DD-based (paper Section IV): the final state DD is frozen once into
//     an immutable dd.Snapshot, whose flat arrays carry the per-node
//     downstream/upstream masses and branch thresholds, and FrozenSampler
//     draws each sample with a randomized root-to-terminal walk over it in
//     O(n) time. Under the paper's proposed L2 normalization scheme the
//     branch probabilities are directly the squared magnitudes of the
//     outgoing edge weights. MeasureAll, QubitProbability, TopOutcomes and
//     Approximate read the same snapshot by index.
//
// Every count-producing batch is cut into ChunkShots chunks, chunk i drawn
// from rng.Stream(seed, i) (see CountsParallel), so counts are a function of
// (sampler, seed, shots) whatever the worker count.
//
// Both families produce exact (error-free) weak simulation: the sampled
// distribution equals the state's Born distribution up to floating-point
// tolerance, so outputs are statistically indistinguishable from an ideal
// quantum computer.
package core

import (
	"context"
	"fmt"

	"weaksim/internal/rng"
)

// Sampler draws basis-state indices distributed according to a quantum
// state's measurement distribution. Sampling is a read-only operation and
// may be repeated arbitrarily (unlike physical measurement, which destroys
// the state — see paper Section IV-B).
type Sampler interface {
	// Sample draws one basis-state index using the supplied random source.
	Sample(r *rng.RNG) uint64
	// Qubits returns the width of sampled bitstrings.
	Qubits() int
}

// Counts draws shots samples and tallies them by basis-state index. The
// result map is preallocated from the shot count and register width, so the
// tally loop never rehashes.
func Counts(s Sampler, r *rng.RNG, shots int) map[uint64]int {
	counts, _ := CountsContext(context.Background(), s, r, shots)
	return counts
}

// CtxCheckShots is the block size of the batch sampling loops: they draw
// CtxCheckShots samples at a time (see drawBlock) and consult the context
// once per block, so cancellation latency is bounded by CtxCheckShots shots
// while the per-sample hot path stays free of synchronization.
const CtxCheckShots = 512

// CountsContext is Counts with cooperative cancellation, checked every
// CtxCheckShots shots. On cancellation it returns the partial tallies
// alongside the context's error, so a timed-out batch still reports the
// samples it managed to draw.
func CountsContext(ctx context.Context, s Sampler, r *rng.RNG, shots int) (map[uint64]int, error) {
	counts := make(map[uint64]int, CountsSizeHint(shots, s.Qubits()))
	var block [CtxCheckShots]uint64
	for drawn := 0; drawn < shots; drawn += CtxCheckShots {
		if ctx.Err() != nil {
			return counts, fmt.Errorf("core: sampling interrupted after %d/%d shots: %w",
				drawn, shots, context.Cause(ctx))
		}
		for _, idx := range drawBlock(s, r, block[:min(CtxCheckShots, shots-drawn)]) {
			counts[idx]++
		}
	}
	return counts, nil
}

// drawBlock fills out with len(out) successive samples from s and returns
// it: through FrozenSampler.SampleBlock's lockstep walk when s is frozen,
// else one Sample call per shot. Either way r ends where len(out) Sample
// calls would leave it, and out holds what they would return.
func drawBlock(s Sampler, r *rng.RNG, out []uint64) []uint64 {
	if fs, ok := s.(*FrozenSampler); ok {
		fs.SampleBlock(r, out)
		return out
	}
	for i := range out {
		out[i] = s.Sample(r)
	}
	return out
}

// FormatBits renders a basis-state index as the paper renders measurement
// outcomes: qubit n-1 first (most significant), e.g. FormatBits(3, 3) ==
// "011".
func FormatBits(idx uint64, n int) string {
	buf := make([]byte, n)
	for i := 0; i < n; i++ {
		if idx>>uint(n-1-i)&1 == 1 {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// ParseBits is the inverse of FormatBits.
func ParseBits(s string) (uint64, error) {
	var idx uint64
	if len(s) > 64 {
		return 0, fmt.Errorf("core: bitstring longer than 64 bits")
	}
	for _, c := range s {
		idx <<= 1
		switch c {
		case '1':
			idx |= 1
		case '0':
		default:
			return 0, fmt.Errorf("core: invalid bit %q", c)
		}
	}
	return idx, nil
}
