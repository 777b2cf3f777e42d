package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"weaksim/internal/dd"
	"weaksim/internal/rng"
)

// WalkVersion names the rule that turns a shot's draw into an outcome: the
// range decoder below, over the walk table's 0.64 fixed-point thresholds.
// Counts are a function of (circuit, seed, shots) under one WalkVersion.
// Durable jobs stamp it into their persisted spec, so a job never merges
// chunks drawn under two walks; a change to the decoder, the threshold
// conversion or the per-shot draw must bump it.
const WalkVersion = 1

// FrozenSampler draws measurement samples from an immutable dd.Snapshot
// (paper Section IV over frozen arrays). NewFrozenSampler builds a flat walk
// table of the 16 bytes a walk reads per node — the two kid indices and the
// 0-branch probability P0 (see branchP0) as a 0.64 fixed-point threshold
// (see threshold) — so a level is one 16-byte load by int32 index.
//
// A shot is one range-decoder pass (see step): it takes exactly one
// Uint64 from r and splits the interval it names level by level, so it
// consumes about its outcome's information content in random bits. Each
// level is branch-free: the draw's position in the interval selects the
// kid by index.
//
// Sample walks one shot. SampleBlock, which every count-producing loop uses
// (see drawBlock), walks walkWidth shots in lockstep, level by level, so the
// independent walks' node loads overlap instead of each waiting on its own
// chain. A shot is a pure function of its one draw, so a block's indices,
// renorm count and final generator state equal those of len(out) Sample
// calls bit for bit.
//
// A FrozenSampler is safe for concurrent use by any number of goroutines,
// each with its own *rng.RNG: the walk table is immutable, and the only
// mutable field (the renorm counter) is atomic. This is what the parallel
// shot generator relies on — one snapshot, many lock-free walkers.
//
// The zero-edge fallback flips the branch without touching the decoder
// state. The tests check the walk bit for bit against a pointer walk over
// the live diagram through the same decoder, SampleBlock bit for bit
// against Sample, and both against exact Born probabilities.
type FrozenSampler struct {
	walk    []walkNode
	root    int32
	n       int
	snap    *dd.Snapshot
	renorms atomic.Uint64
}

// walkNode is one node of the walk table: a dd.SnapNode's kids and its
// threshold(branchP0). The walk table is a property of the sampling code,
// not of the snapshot, so persisted and shipped snapshots stay valid
// whatever the walk.
type walkNode struct {
	Kid [2]int32
	T   uint64
}

// walkNodeBytes is the size of one walkNode.
const walkNodeBytes = 16

// NewFrozenSampler prepares lock-free sampling from a frozen state, building
// its walk table in one pass over the snapshot's nodes. Under NormLeft the
// branch rule needs downstream masses, which one more ascending pass
// computes first.
func NewFrozenSampler(snap *dd.Snapshot) (*FrozenSampler, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if snap.Qubits() > 0 && (snap.Len() == 0 || snap.Root() < 0) {
		return nil, fmt.Errorf("core: snapshot has no root node for %d qubits", snap.Qubits())
	}
	var down []float64
	if snap.Norm() == dd.NormLeft {
		down = downMass(snap)
	}
	nodes := snap.Nodes()
	walk := make([]walkNode, len(nodes))
	for i := range nodes {
		walk[i] = walkNode{Kid: nodes[i].Kid, T: threshold(branchP0(&nodes[i], down))}
	}
	return &FrozenSampler{
		walk: walk,
		root: snap.Root(),
		n:    snap.Qubits(),
		snap: snap,
	}, nil
}

// branchP0 is the probability that a walk through nd takes its 0-branch:
// the sampler's one branch rule. Without downstream masses (down == nil) it
// is |w0|², which is exact under L2 normalization, where every node's
// downstream mass is 1 (paper Section IV-C). With them it is d0/(d0+d1),
// the 0-branch's share of the node's downstream mass, which holds under any
// normalization (Section IV-B); a node without mass gets 0.
func branchP0(nd *dd.SnapNode, down []float64) float64 {
	if down == nil {
		return nd.W[0].Abs2()
	}
	d0, d1 := branchMass(nd, down)
	if total := d0 + d1; total > 0 {
		return d0 / total
	}
	return 0
}

// threshold converts a branch probability P0 to the 0.64 fixed-point
// threshold the decoder splits on: ⌊P0·2^64⌋, with NaN and P0 ≤ 0 mapped to
// 0 (always branch 1) and P0 ≥ 1 to MaxUint64. The product of a float64
// below 1 and 2^64 is exact and below 2^64, so the conversion never
// overflows.
func threshold(p0 float64) uint64 {
	switch {
	case !(p0 > 0):
		return 0
	case p0 >= 1:
		return math.MaxUint64
	}
	return uint64(p0 * (1 << 64))
}

// Qubits returns the sampled bitstring width.
func (s *FrozenSampler) Qubits() int { return s.n }

// Snapshot returns the frozen state the sampler walks.
func (s *FrozenSampler) Snapshot() *dd.Snapshot { return s.snap }

// WalkBytes returns the size of the walk table the sampler holds next to
// its snapshot: 16 bytes per node.
func (s *FrozenSampler) WalkBytes() int { return len(s.walk) * walkNodeBytes }

// Renorms returns how many zero-edge fallbacks walks have taken so far,
// summed across all goroutines: the "rejection/renormalization" events of
// the randomized traversal, caused purely by floating-point slack at
// (near-)zero branch probabilities. A healthy state keeps this at or near
// zero.
func (s *FrozenSampler) Renorms() uint64 { return s.renorms.Load() }

// A shot is decoded like an arithmetic-coded message: its state is a
// position x in an interval [0, r) and a SplitMix64 state w. A shot starts
// from one 64-bit draw: x is the draw, r is 2^64−1, and w is seeded by the
// draw, so the whole shot is a pure function of it.
//
// Each level splits the interval at s = ⌊T·r/2^64⌋, T the node's threshold:
// x < s takes branch 0 and keeps [0, s), else branch 1 keeps [s, r), shifted
// to start at 0. x is uniform in the surviving sub-interval again, so the
// next level splits the same way. Before a split, r < 2^32 shifts 32 bits
// from the SplitMix64 sequence into x (and r by 32 bits), so every split
// has r ≥ 2^32: s/r is then within 2^-64 + 1/r < 2^-31 of P0, the bias
// bound per level.

// refillBelow is the interval width under which a level first refills.
const refillBelow = 1 << 32

// step decodes one level on threshold t from the shot state (x, r, w) and
// returns the level's bit and the next state: a refill when r is below
// refillBelow, then the split. Sample and the live-diagram test oracle walk
// through it; SampleBlock spells out its two calls so they inline.
func step(t, x, r, w uint64) (bit, nx, nr, nw uint64) {
	if r < refillBelow {
		x, r, w = refill(x, r, w)
	}
	bit, x, r = split(t, x, r)
	return bit, x, r, w
}

// split is the interval rule on threshold t: it returns the level's bit and
// the surviving interval (x, r). It is branch-free: the comparison's borrow
// picks the bit, and a mask picks the sub-interval.
func split(t, x, r uint64) (bit, nx, nr uint64) {
	s, _ := bits.Mul64(t, r)
	_, borrow := bits.Sub64(x, s, 0)
	mask := borrow - 1 // all ones iff x ≥ s
	return mask & 1, x - s&mask, s ^ (s^(r-s))&mask
}

// refill shifts the next 32 bits of the shot's SplitMix64 sequence into x.
func refill(x, r, w uint64) (nx, nr, nw uint64) {
	w, z := rng.SplitMix(w)
	return x<<32 | z>>32, r << 32, w
}

// Sample draws one basis-state index by a randomized walk over the walk
// table, from exactly one r.Uint64. Safe for concurrent use; r must be
// goroutine-local.
func (s *FrozenSampler) Sample(r *rng.RNG) uint64 {
	x := r.Uint64()
	rr, w := uint64(math.MaxUint64), x
	var idx uint64
	cur := s.root
	for range s.n {
		nd := &s.walk[cur]
		var bit uint64
		bit, x, rr, w = step(nd.T, x, rr, w)
		next := nd.Kid[bit]
		if next == dd.SnapZero {
			// Floating-point slack put the walk on a zero edge: the other
			// branch holds all the mass. Take it; the decoder state stays.
			bit ^= 1
			next = nd.Kid[bit]
			s.renorms.Add(1)
		}
		idx = idx<<1 | bit
		cur = next
	}
	return idx
}

// walkWidth is how many shots SampleBlock walks in lockstep. Any width from
// 8 to 64 runs at about the same speed: wide enough for the independent
// walks' loads to overlap, small enough that a block's state stays in L1.
const walkWidth = 32

// SampleBlock fills out with len(out) samples: bit for bit the indices that
// len(out) successive Sample calls would return from the same r, leaving r
// where they would leave it (one Uint64 per shot) and adding the same count
// to Renorms. It allocates nothing. Safe for concurrent use; r must be
// goroutine-local.
//
// Shots are taken walkWidth at a time. The block's draws are taken up front
// in shot order, then the shots descend in lockstep, one level for all of
// them before the next, so their independent chains of node loads overlap.
// Only the decoder's refill and the rare zero-edge fallback branch; each
// shot shifts its bits into its index, top qubit first, so no shift count
// is kept.
func (s *FrozenSampler) SampleBlock(r *rng.RNG, out []uint64) {
	var (
		xs, rs, ws [walkWidth]uint64
		cur        [walkWidth]int32
	)
	walk := s.walk
	for len(out) > 0 {
		b := min(len(out), walkWidth)
		idx, at := out[:b], cur[:b]
		for j := range idx {
			d := r.Uint64()
			idx[j], at[j], xs[j], rs[j], ws[j] = 0, s.root, d, math.MaxUint64, d
		}
		for range s.n {
			for j := range idx {
				// step(nd.T, xs[j], rs[j], ws[j]), spelled out.
				nd := &walk[at[j]]
				x, rr := xs[j], rs[j]
				if rr < refillBelow {
					x, rr, ws[j] = refill(x, rr, ws[j])
				}
				bit, x, rr := split(nd.T, x, rr)
				xs[j], rs[j] = x, rr
				next := nd.Kid[bit]
				if next == dd.SnapZero {
					bit ^= 1
					next = nd.Kid[bit]
					s.renorms.Add(1)
				}
				at[j] = next
				idx[j] = idx[j]<<1 | bit
			}
		}
		out = out[b:]
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
	t, err := TallyParallelContext(ctx, s, seed, shots, workers)
	return t.Map(), err
}

// TallyParallelContext is CountsParallelContext returning the Tally itself,
// for callers that read the counts in index order (the daemon's response
// writer) and so need no map.
func TallyParallelContext(ctx context.Context, s Sampler, seed uint64, shots, workers int) (*Tally, error) {
	return tallyParallel(ctx, s, seed, shots, workers, tallyDense(s.Qubits(), shots))
}

// tallyParallel is TallyParallelContext's body, tallying densely or not as
// asked. Each worker tallies into its own Tally of the batch's
// representation; the parts are merged by element-wise (dense) or
// per-entry (map) addition, which commutes, so the counts do not depend on
// which worker drew which chunk.
func tallyParallel(ctx context.Context, s Sampler, seed uint64, shots, workers int, dense bool) (*Tally, error) {
	if shots <= 0 {
		return TallyOf(map[uint64]int{}), ctx.Err()
	}
	chunks := (shots + ChunkShots - 1) / ChunkShots
	workers = max(1, min(workers, chunks))
	qubits := s.Qubits()
	var next atomic.Int64
	if workers == 1 {
		// One worker tallies straight into the result: no goroutine, no merge.
		t := newTally(qubits, shots, dense)
		return t, tallyChunks(ctx, s, seed, shots, &next, t)
	}

	share := min(shots, (chunks+workers-1)/workers*ChunkShots)
	parts := make([]*Tally, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = newTally(qubits, share, dense)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = tallyChunks(ctx, s, seed, shots, &next, parts[k])
		}(k)
	}
	wg.Wait()
	merged, rest := parts[0], parts[1:]
	if !dense {
		// A worker's map is sized for its share; the merged one for the batch.
		merged, rest = newTally(qubits, shots, false), parts
	}
	for _, p := range rest {
		merged.Add(p)
	}
	for _, err := range errs {
		if err != nil {
			return merged, err
		}
	}
	return merged, nil
}

// tallyChunks claims chunks from next until the batch is exhausted and
// draws each into t through drawChunk, chunk i from rng.Stream(seed, i).
func tallyChunks(ctx context.Context, s Sampler, seed uint64, shots int, next *atomic.Int64, t *Tally) error {
	for {
		chunk := int(next.Add(1) - 1)
		quota := min(ChunkShots, shots-chunk*ChunkShots)
		if quota <= 0 {
			return nil
		}
		if err := drawChunk(ctx, s, rng.Stream(seed, chunk), chunk, quota, t); err != nil {
			return err
		}
	}
}
