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

// WalkVersion names the rule that turns a chunk's random stream into
// counts. Version 2 is the binomial split (see splitNode): a node's shots
// divide between its kids by one rng.Binomial draw over the walk table's
// 0.64 fixed-point threshold, and a node reached by at most splitMax shots
// walks each through the range decoder below. (Version 1 walked every shot
// through the decoder from the root.) Counts are a function of (circuit,
// seed, shots) under one WalkVersion. Durable jobs stamp it into their
// persisted spec, so a job never merges chunks drawn under two walks, and
// replicas report it on /readyz, so a router never answers one key under
// two; a change to the split, the decoder, the threshold conversion or the
// draws must bump it.
const WalkVersion = 2

// FrozenSampler draws measurement samples from an immutable dd.Snapshot
// (paper Section IV over frozen arrays). NewFrozenSampler builds a flat walk
// table of the 16 bytes a walk reads per node — the two kid indices and the
// 0-branch probability P0 (see branchP0) as a 0.64 fixed-point threshold
// (see threshold) — so a level is one 16-byte load by int32 index.
//
// Sample walks one shot as one range-decoder pass (see split): it takes
// exactly one Uint64 from r and splits the interval it names level by
// level, branch-free, so it consumes about its outcome's information
// content in random bits. Count-producing calls split a chunk's shots down
// the table instead (see splitNode), at a cost of one draw per distinct
// outcome prefix rather than one walk per shot, and walk the shots of a
// node reached by few two at a time, so their dependent chains overlap.
//
// A FrozenSampler is safe for concurrent use by any number of goroutines,
// each with its own *rng.RNG: the walk table is immutable, and the only
// mutable field (the renorm counter) is atomic. This is what the parallel
// shot generator relies on — one snapshot, many lock-free walkers.
//
// The zero-edge fallback flips the branch without touching the decoder
// state. The tests check the walk and the split bit for bit against a
// walk and a split over the live diagram, and both against exact Born
// probabilities.
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

// A level of a walk is a refill when r is below refillBelow, then a split.
// The walks write those two calls out rather than calling one helper,
// because the compiler inlines each of them but not a function of both.

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
func (s *FrozenSampler) Sample(r *rng.RNG) uint64 { return s.descend(r.Uint64(), s.root, s.n) }

// descend decodes draw d down the levels levels below node cur and returns
// the bits it takes, the top level's most significant.
func (s *FrozenSampler) descend(d uint64, cur int32, levels int) uint64 {
	x, rr, w := d, uint64(math.MaxUint64), d
	var idx uint64
	walk := s.walk
	for range levels {
		nd := &walk[cur]
		if rr < refillBelow {
			x, rr, w = refill(x, rr, w)
		}
		var bit uint64
		bit, x, rr = split(nd.T, x, rr)
		cur, bit = s.kid(nd, bit)
		idx = idx<<1 | bit
	}
	return idx
}

// descendPair returns what descend(d0, cur, levels) and descend(d1, cur,
// levels) would, walking both draws in step. A level of one walk is a
// dependent chain (load the node, multiply by its threshold, compare, pick
// the kid to load next), so a walk alone runs at that chain's latency; two
// independent walks overlap their chains. Four or sixteen walks at a time
// gained at most a tenth more on 26-level walks and lost on 4-level ones
// (EXPERIMENTS.md, "Paired fallback walk").
func (s *FrozenSampler) descendPair(d0, d1 uint64, cur int32, levels int) (idx0, idx1 uint64) {
	x0, r0, w0 := d0, uint64(math.MaxUint64), d0
	x1, r1, w1 := d1, uint64(math.MaxUint64), d1
	cur0, cur1 := cur, cur
	walk := s.walk
	for range levels {
		nd0, nd1 := &walk[cur0], &walk[cur1]
		if r0 < refillBelow {
			x0, r0, w0 = refill(x0, r0, w0)
		}
		if r1 < refillBelow {
			x1, r1, w1 = refill(x1, r1, w1)
		}
		var b0, b1 uint64
		b0, x0, r0 = split(nd0.T, x0, r0)
		b1, x1, r1 = split(nd1.T, x1, r1)
		cur0, b0 = s.kid(nd0, b0)
		cur1, b1 = s.kid(nd1, b1)
		idx0 = idx0<<1 | b0
		idx1 = idx1<<1 | b1
	}
	return idx0, idx1
}

// kid returns nd's kid on branch bit, picked by a mask rather than an
// indexed load, and the branch taken. When floating-point slack put the
// walk on a zero edge, the other branch holds all the mass: kid takes it
// and counts a renorm, and the decoder state stays.
func (s *FrozenSampler) kid(nd *walkNode, bit uint64) (int32, uint64) {
	k0, k1 := nd.Kid[0], nd.Kid[1]
	next := k0 ^ (k0^k1)&-int32(bit)
	if next == dd.SnapZero {
		s.renorms.Add(1)
		return k0 ^ k1 ^ next, bit ^ 1
	}
	return next, bit
}

// splitMax is the most shots a node walks one by one: splitNode sends a
// node's shots on to its kids by a binomial draw only when more than
// splitMax reach it, since below that the draw costs about what it saves.
// 16 measured fastest on BenchmarkCountsFrozen's qft_16, with 8 and 32
// within 10%.
const splitMax = 16

// splitNode tallies n shots that reached node cur, levels levels above the
// terminal, with their walks so far spelling prefix: the shots split
// between the kids as Binomial(n, P0) (paper Section IV: every shot at a
// node takes its 0-branch with probability P0, independently), the 0-kid
// first, so a chunk's leaves come in ascending index order. A node reached
// by at most splitMax shots walks them down from there (walkGroup), each
// from one draw taken in shot order, so the counts are what walking them
// one by one would give. Shots a draw sends to a zero kid — floating-point
// slack — go to the other kid and count as renorms, as in the walks.
// c.place runs the chunk's cancellation and chaos checks before each group
// of shots is tallied, so on an error the tally holds exactly the subtrees
// finished before it.
func (s *FrozenSampler) splitNode(c *chunk, cur int32, levels int, prefix uint64, n int) error {
	if levels == 0 || n <= splitMax {
		if err := c.place(n); err != nil {
			return err
		}
		if levels == 0 {
			c.t.add(prefix, n)
		} else {
			s.walkGroup(c, cur, levels, prefix<<levels, n)
		}
		return nil
	}
	nd := &s.walk[cur]
	n0 := c.r.Binomial(n, float64(nd.T)*0x1p-64)
	k := [2]int{n0, n - n0}
	for bit, kid := range nd.Kid {
		if kid == dd.SnapZero && k[bit] > 0 {
			s.renorms.Add(uint64(k[bit]))
			k[bit^1], k[bit] = n, 0
		}
	}
	for bit, kid := range nd.Kid {
		if k[bit] > 0 {
			if err := s.splitNode(c, kid, levels-1, prefix<<1|uint64(bit), k[bit]); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkGroup tallies the n ≤ splitMax shots that reached node cur, levels
// levels above the terminal, with base their index bits above it: it walks
// them two at a time (descendPair), the odd one last (descend), each from
// one draw taken in shot order. A dense tally counts each outcome as its
// walk ends; a run tally takes them as one group on the stack
// (Tally.group). It is splitNode's leaf, apart so that the recursion's
// frames stay small.
func (s *FrozenSampler) walkGroup(c *chunk, cur int32, levels int, base uint64, n int) {
	if dense := c.t.dense; dense != nil {
		for ; n >= 2; n -= 2 {
			d0 := c.r.Uint64()
			d1 := c.r.Uint64()
			idx0, idx1 := s.descendPair(d0, d1, cur, levels)
			dense[base|idx0]++
			dense[base|idx1]++
		}
		if n == 1 {
			dense[base|s.descend(c.r.Uint64(), cur, levels)]++
		}
		return
	}
	var g [splitMax]uint64
	k := 0
	for ; k+2 <= n; k += 2 {
		d0 := c.r.Uint64()
		d1 := c.r.Uint64()
		idx0, idx1 := s.descendPair(d0, d1, cur, levels)
		g[k], g[k+1] = base|idx0, base|idx1
	}
	if k < n {
		g[k] = base | s.descend(c.r.Uint64(), cur, levels)
	}
	c.t.group(&g, n)
}

// CountsSizeHint bounds the number of distinct outcomes a tally of shots
// samples over n qubits can hold: no more than the shot count, and no more
// than the 2^n basis states. A chunk's run starts at no more than it.
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
	t, err := TallyParallelContext(ctx, s, seed, shots, workers, nil)
	return t.Map(), err
}

// TallyParallelContext is CountsParallelContext returning the Tally itself,
// for callers that read the counts in index order (the daemon's response
// writer) and so need no map. A single-worker run tally is drawn into
// spare's storage: spare's runs are truncated and their slices refilled,
// so a caller that keeps the tally its last answer was written from (when
// it is Reusable) allocates no run for the next. spare may be nil, else it
// must be Reusable; nothing may read it after the call.
func TallyParallelContext(ctx context.Context, s Sampler, seed uint64, shots, workers int, spare *Tally) (*Tally, error) {
	return tallyParallel(ctx, s, seed, shots, workers, tallyDense(s.Qubits(), shots), spare)
}

// tallyParallel is TallyParallelContext's body, tallying densely or not as asked.
// Each worker tallies into its own Tally of the batch's representation; the
// parts are merged by element-wise addition (dense) or by taking over their
// runs, one per chunk, so the counts do not depend on which worker drew
// which chunk.
func tallyParallel(ctx context.Context, s Sampler, seed uint64, shots, workers int, dense bool, spare *Tally) (*Tally, error) {
	if shots <= 0 {
		return &Tally{}, ctx.Err()
	}
	chunks := (shots + ChunkShots - 1) / ChunkShots
	workers = max(1, min(workers, chunks))
	qubits := s.Qubits()
	var next atomic.Int64
	if workers == 1 {
		// One worker tallies straight into the result: no goroutine, no merge.
		t := spare.reuse(qubits, dense)
		return t, tallyChunks(ctx, s, seed, shots, &next, t)
	}

	parts := make([]*Tally, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = newTally(qubits, dense)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = tallyChunks(ctx, s, seed, shots, &next, parts[k])
		}(k)
	}
	wg.Wait()
	for _, p := range parts[1:] {
		parts[0].Add(p)
	}
	for _, err := range errs {
		if err != nil {
			return parts[0], err
		}
	}
	return parts[0], nil
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
