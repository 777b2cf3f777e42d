package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/rng"
)

// FrozenSampler draws measurement samples from an immutable dd.Snapshot
// (paper Section IV over frozen arrays). The walk reads a flat
// []dd.SnapNode by int32 index and compares the uniform draw against the
// precomputed cumulative threshold P0: a handful of cache-friendly array
// loads per level, with no map lookups and no pointer chasing. Each level is
// one branch-free step (see step): the draw's comparison with P0 selects
// the kid by index, so a 50/50 branch costs no mispredicted jump.
//
// Sample walks one shot. SampleBlock, which every count-producing loop uses
// (see drawBlock), walks walkWidth shots in lockstep, level by level, so the
// independent walks' node loads overlap instead of each waiting on its own
// chain. Its draws are taken up front in Sample's order — shot by shot,
// level n−1 first, one uniform per level — and each shot runs the same
// step on the same draws, so a block's indices, renorm count and final
// generator state equal those of len(out) Sample calls bit for bit.
//
// A FrozenSampler is safe for concurrent use by any number of goroutines,
// each with its own *rng.RNG: the snapshot is immutable, and the only
// mutable field (the renorm counter) is atomic. This is what the parallel
// shot generator relies on — one snapshot, many lock-free walkers.
//
// Exactly one uniform is consumed per level, and the zero-edge fallback
// flips the branch without drawing again; the tests check the walk bit for
// bit against a pointer walk over the live diagram, and SampleBlock bit for
// bit against Sample.
type FrozenSampler struct {
	nodes   []dd.SnapNode
	root    int32
	n       int
	snap    *dd.Snapshot
	renorms atomic.Uint64
}

// NewFrozenSampler prepares lock-free sampling from a frozen state.
func NewFrozenSampler(snap *dd.Snapshot) (*FrozenSampler, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if snap.Qubits() > 0 && (snap.Len() == 0 || snap.Root() < 0) {
		return nil, fmt.Errorf("core: snapshot has no root node for %d qubits", snap.Qubits())
	}
	return &FrozenSampler{
		nodes: snap.Nodes(),
		root:  snap.Root(),
		n:     snap.Qubits(),
		snap:  snap,
	}, nil
}

// Qubits returns the sampled bitstring width.
func (s *FrozenSampler) Qubits() int { return s.n }

// Snapshot returns the frozen state the sampler walks.
func (s *FrozenSampler) Snapshot() *dd.Snapshot { return s.snap }

// Renorms returns how many zero-edge fallbacks walks have taken so far,
// summed across all goroutines: the "rejection/renormalization" events of
// the randomized traversal, caused purely by floating-point slack at
// (near-)zero branch probabilities. A healthy state keeps this at or near
// zero.
func (s *FrozenSampler) Renorms() uint64 { return s.renorms.Load() }

// Sample draws one basis-state index by a randomized walk over the frozen
// arrays. Safe for concurrent use; r must be goroutine-local.
func (s *FrozenSampler) Sample(r *rng.RNG) uint64 {
	var idx uint64
	cur := s.root
	for v := s.n - 1; v >= 0; v-- {
		next, bit, zero := step(&s.nodes[cur], r.Float64())
		if zero {
			s.renorms.Add(1)
		}
		idx |= bit << (uint(v) & 63)
		cur = next
	}
	return idx
}

// step takes one level of a walk from node nd on the uniform draw u: bit 0
// (to Kid[0]) iff u < P0, selected without a data-dependent branch. If that
// lands on a zero edge, floating-point slack put the walk there and the
// other branch holds all the mass: step flips to it, consuming no draw, and
// reports zero so the caller can count the renormalization event.
func step(nd *dd.SnapNode, u float64) (next int32, bit uint64, zero bool) {
	if !(u < nd.P0) {
		bit = 1
	}
	next = nd.Kid[bit&1]
	if next == dd.SnapZero {
		bit ^= 1
		next, zero = nd.Kid[bit&1], true
	}
	return next, bit, zero
}

// walkWidth is how many shots SampleBlock walks in lockstep. Any width from
// 8 to 64 runs at about the same speed: wide enough for the independent
// walks' loads to overlap, small enough that a block's draws (walkWidth·n
// uint64s) stay in L1.
const walkWidth = 32

// SampleBlock fills out with len(out) samples: bit for bit the indices that
// len(out) successive Sample calls would return from the same r, leaving r
// where they would leave it and adding the same count to Renorms. It
// allocates nothing. Safe for concurrent use; r must be goroutine-local.
//
// Shots are taken walkWidth at a time. The block's draws are filled up front
// in Sample's order (shot by shot, level n−1 first), then the shots descend
// in lockstep, one level for all of them before the next, so their
// independent chains of node loads overlap. Each step is a branch-free
// select on the draw; only the rare zero-edge fallback branches, and it
// consumes no draw.
func (s *FrozenSampler) SampleBlock(r *rng.RNG, out []uint64) {
	n := s.n
	if n == 0 {
		clear(out)
		return
	}
	var (
		draws   [walkWidth * dd.MaxQubits]uint64
		cur     [walkWidth]int32
		renorms uint64
	)
	nodes := s.nodes
	for len(out) > 0 {
		b := min(len(out), walkWidth)
		u := draws[:b*n]
		r.Fill53(u)
		idx, at := out[:b], cur[:b]
		for j := range idx {
			idx[j], at[j] = 0, s.root
		}
		for v := n - 1; v >= 0; v-- {
			shift := uint(v) & 63
			// Shot j's draw for level v is u[j*n + n-1-v].
			d := n - 1 - v
			for j := range idx {
				// u[d] < 2^53, so float64(int64(u[d]))/2^53 is exactly the
				// value Float64 returns; the signed conversion is one
				// instruction.
				next, bit, zero := step(&nodes[at[j]], float64(int64(u[d]))/(1<<53))
				if zero {
					renorms++
				}
				d += n
				at[j] = next
				idx[j] |= bit << shift
			}
		}
		out = out[b:]
	}
	if renorms != 0 {
		s.renorms.Add(renorms)
	}
}

// CountsSizeHint bounds the number of distinct outcomes a tally of shots
// samples over n qubits can hold: no more than the shot count, and no more
// than the 2^n basis states. Used to preallocate result maps so the tally
// loop never rehashes.
func CountsSizeHint(shots, qubits int) int {
	if shots < 0 {
		return 0
	}
	if qubits < 63 {
		if states := 1 << uint(qubits); states < shots {
			return states
		}
	}
	return shots
}

// MergeCounts folds the partial tallies in parts into dst. It allocates no
// intermediate structures: each partial entry is a single map-index add on
// dst. Merging is commutative, so the result is independent of part order;
// callers that need deterministic map growth merge in worker order.
func MergeCounts(dst map[uint64]int, parts ...map[uint64]int) {
	for _, part := range parts {
		for idx, c := range part {
			dst[idx] += c
		}
	}
}

// ChunkShots is the one seed-splitting granularity for everything that
// produces counts: chunk i of a batch draws its ChunkShots samples (the last
// chunk the remainder) from rng.Stream(seed, i). CountsParallel and durable
// jobs both cut batches this way, so a batch's counts are a function of
// (sampler, seed, shots) alone — never of the worker count or of the path
// that drew them.
const ChunkShots = 65536

// CountsParallel draws shots samples from the sampler in ChunkShots chunks,
// chunk i from rng.Stream(seed, i), and returns the merged tallies. Up to
// workers goroutines walk the sampler concurrently, each pulling the next
// unclaimed chunk, so the result does not depend on workers. A batch of at
// most ChunkShots shots is one chunk and consumes precisely the sequence of
// rng.New(seed) (Stream(seed, 0) == New(seed)).
//
// The sampler must be safe for concurrent use when workers > 1
// (FrozenSampler is, and so are the read-only vector-based samplers).
func CountsParallel(s Sampler, seed uint64, shots, workers int) (map[uint64]int, error) {
	return CountsParallelContext(context.Background(), s, seed, shots, workers)
}

// CountsParallelContext is CountsParallel with cooperative cancellation,
// checked every CtxCheckShots shots of a chunk. On cancellation the partial
// tallies drawn so far are merged and returned alongside the context's
// error.
func CountsParallelContext(ctx context.Context, s Sampler, seed uint64, shots, workers int) (map[uint64]int, error) {
	if shots <= 0 {
		return map[uint64]int{}, ctx.Err()
	}
	chunks := (shots + ChunkShots - 1) / ChunkShots
	workers = max(1, min(workers, chunks))
	qubits := s.Qubits()
	var next atomic.Int64
	if workers == 1 {
		// One worker tallies straight into the result: no goroutine, no merge.
		counts := make(map[uint64]int, CountsSizeHint(shots, qubits))
		return counts, tallyChunks(ctx, s, seed, shots, &next, counts)
	}

	share := min(shots, (chunks+workers-1)/workers*ChunkShots)
	parts := make([]map[uint64]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = make(map[uint64]int, CountsSizeHint(share, qubits))
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = tallyChunks(ctx, s, seed, shots, &next, parts[k])
		}(k)
	}
	wg.Wait()
	merged := make(map[uint64]int, CountsSizeHint(shots, qubits))
	MergeCounts(merged, parts...)
	for _, err := range errs {
		if err != nil {
			return merged, err
		}
	}
	return merged, nil
}

// tallyChunks claims chunks from next until the batch is exhausted and
// tallies each into counts. Cancellation and the chaos hook share the
// CtxCheckShots stride, so both cost nothing on CtxCheckShots-1 of every
// CtxCheckShots shots. An injected panic (chaos testing) becomes the
// returned error: it must not take down the process from a sampling
// goroutine, where nothing else could recover it. Genuine panics propagate.
func tallyChunks(ctx context.Context, s Sampler, seed uint64, shots int, next *atomic.Int64, counts map[uint64]int) (err error) {
	var (
		chunk, drawn, quota int
		block               [CtxCheckShots]uint64
	)
	defer func() {
		if rec := recover(); rec != nil {
			p, ok := rec.(*fault.InjectedPanic)
			if !ok {
				panic(rec)
			}
			err = fmt.Errorf("core: chunk %d: %w after %d/%d shots", chunk, p, drawn, quota)
		}
	}()
	for {
		chunk = int(next.Add(1) - 1)
		if quota = min(ChunkShots, shots-chunk*ChunkShots); quota <= 0 {
			return nil
		}
		r := rng.Stream(seed, chunk)
		for drawn = 0; drawn < quota; drawn += CtxCheckShots {
			if ctx.Err() != nil {
				return fmt.Errorf("core: chunk %d interrupted after %d/%d shots: %w",
					chunk, drawn, quota, context.Cause(ctx))
			}
			if err := fault.Hit(fault.SamplerWalk); err != nil {
				return fmt.Errorf("core: chunk %d after %d/%d shots: %w", chunk, drawn, quota, err)
			}
			for _, idx := range drawBlock(s, r, block[:min(CtxCheckShots, quota-drawn)]) {
				counts[idx]++
			}
		}
	}
}
