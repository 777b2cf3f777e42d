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
//     an immutable dd.Snapshot, a flat array of the DD's nodes (kids, edge
//     weights, level) and nothing derived from them. FrozenSampler builds
//     a walk table of branch thresholds from it by one rule, branchP0. A
//     sample is a randomized root-to-terminal walk in O(n) time; a batch's
//     N shots at a node split between its kids by one Binomial(N, P0)
//     draw. Under the paper's proposed L2 normalization scheme the branch
//     probabilities are directly the squared magnitudes of the outgoing
//     edge weights; under NormLeft they come from the downstream masses
//     (downMass). MeasureAll, QubitProbability, TopOutcomes and
//     Approximate compute the downstream and upstream masses they read
//     over the same kind of snapshot.
//
// Every count-producing batch is cut into ChunkShots chunks, chunk i split
// from rng.Stream(seed, i) (see CountsParallel), so counts are a function
// of (sampler, seed, shots) whatever the worker count. A batch tallies into
// a Tally: a dense histogram when the register is small next to the shots,
// else one strictly ascending run per chunk, in the index order the split
// yields. Tally.Ascending merges the runs k ways for the daemon's counts
// writer and job records; only Tally.Map, at the library's edge, hashes.
//
// Both families produce exact (error-free) weak simulation: the sampled
// distribution equals the state's Born distribution up to floating-point
// tolerance, so outputs are statistically indistinguishable from an ideal
// quantum computer.
package core

import (
	"context"
	"fmt"

	"weaksim/internal/fault"
	"weaksim/internal/rng"
)

// Sampler draws basis-state indices distributed according to a quantum
// state's measurement distribution. Sampling is a read-only operation and
// may be repeated arbitrarily (unlike physical measurement, which destroys
// the state — see paper Section IV-B).
type Sampler interface {
	// Sample draws one basis-state index using the supplied random source.
	Sample(r *rng.RNG) uint64
	// Qubits returns the width of sampled bitstrings: every index Sample
	// returns is below 2^Qubits() (a dense tally indexes by it).
	Qubits() int
}

// Counts draws shots samples and tallies them by basis-state index, through
// drawChunk as one chunk drawn from r, dense or one run by the one rule of
// tallyDense, and builds the map from the tally once. shots must stay below
// 2^32: a run counts an outcome in a uint32.
func Counts(s Sampler, r *rng.RNG, shots int) map[uint64]int {
	t := NewTally(s.Qubits(), shots)
	_ = drawChunk(context.Background(), s, r, 0, shots, t) // fails only under fault injection
	return t.Map()
}

// CtxCheckShots is the stride of a chunk's cancellation and chaos checks
// (see chunk.place): latency to cancel is bounded by CtxCheckShots shots,
// while the per-shot hot path stays free of synchronization.
const CtxCheckShots = 512

// TallyChunk draws chunk of a batch seeded by seed: quota samples from
// rng.Stream(seed, chunk), tallied by NewTally's rule. It is the unit a
// durable job checkpoints; a batch cut into ChunkShots chunks, each drawn
// this way and merged, equals CountsParallel's counts. On cancellation or an
// injected fault it returns the partial tally alongside the error.
func TallyChunk(ctx context.Context, s Sampler, seed uint64, chunk, quota int) (*Tally, error) {
	t := NewTally(s.Qubits(), quota)
	return t, drawChunk(ctx, s, rng.Stream(seed, chunk), chunk, quota, t)
}

// runStartLen is the capacity a chunk's run starts at. A 1,024-shot answer
// never regrows it; a larger chunk lets append grow it to its outcomes,
// which can be far fewer than CountsSizeHint's bound: a 65,536-shot chunk
// of shor_33_2 holds about 1,840 of a possible 65,536.
const runStartLen = 1 << 10

// drawChunk is the one chunk body of every count-producing call: it tallies
// quota samples drawn from r into t, a run tally into a new run that starts
// at runStartLen. A *FrozenSampler splits them down its walk table (see
// FrozenSampler.splitNode), which leaves the run in order; any other
// sampler draws one Sample per shot, a CtxCheckShots block at a time, and
// its run is sorted and settled once at the end, even a partial one. An
// injected panic (chaos testing) becomes the returned error: it must not
// take down the process from a sampling goroutine, where nothing else could
// recover it. Genuine panics propagate. index labels the errors.
func drawChunk(ctx context.Context, s Sampler, r *rng.RNG, index, quota int, t *Tally) (err error) {
	c := &chunk{ctx: ctx, r: r, t: t, index: index, quota: quota}
	t.newRun(min(CountsSizeHint(quota, s.Qubits()), runStartLen))
	defer func() {
		if rec := recover(); rec != nil {
			p, ok := rec.(*fault.InjectedPanic)
			if !ok {
				panic(rec)
			}
			err = fmt.Errorf("core: chunk %d: %w after %d/%d shots", index, p, c.placed, quota)
		}
	}()
	if fs, ok := s.(*FrozenSampler); ok {
		return fs.splitNode(c, fs.root, fs.n, 0, quota)
	}
	defer t.settle()
	for c.placed < quota {
		n := min(CtxCheckShots, quota-c.placed)
		if err := c.place(n); err != nil {
			return err
		}
		for range n {
			t.shot(s.Sample(r))
		}
	}
	return nil
}

// chunk is one drawChunk call in progress: where its shots come from and
// go, and how many of them are placed and checked.
type chunk struct {
	ctx             context.Context
	r               *rng.RNG
	t               *Tally
	index, quota    int
	placed, checked int
}

// place accounts for n shots about to be tallied, one at a time or by the
// thousand: before the shots that reach each multiple of CtxCheckShots it
// consults the context and the chaos hook. On an error the n shots are not
// placed.
func (c *chunk) place(n int) error {
	for ; c.checked < c.placed+n; c.checked += CtxCheckShots {
		if c.ctx.Err() != nil {
			return fmt.Errorf("core: chunk %d interrupted after %d/%d shots: %w",
				c.index, c.placed, c.quota, context.Cause(c.ctx))
		}
		if err := fault.Hit(fault.SamplerWalk); err != nil {
			return fmt.Errorf("core: chunk %d after %d/%d shots: %w", c.index, c.placed, c.quota, err)
		}
	}
	c.placed += n
	return nil
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

// BitstringCounts re-keys index counts by FormatBits(idx, n): the shape the
// library's Counts and the CLI's histogram report.
func BitstringCounts(counts map[uint64]int, n int) map[string]int {
	out := make(map[string]int, len(counts))
	for idx, c := range counts {
		out[FormatBits(idx, n)] = c
	}
	return out
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
