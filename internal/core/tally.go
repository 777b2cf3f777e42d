package core

import (
	"math"
	"slices"
)

// denseMaxQubits is the widest register a batch may tally densely: a
// 2^20-entry []uint32 is 4 MiB.
const denseMaxQubits = 20

// tallyDense is the one rule that picks a batch's tally: a dense []uint32
// histogram indexed by basis state when the register is at most
// denseMaxQubits wide and its 2^n states are no more than the shots (so the
// array never holds more counters than the batch has shots, and at most
// 4 MiB), else ascending runs. shots must stay below 2^32 so a uint32
// counter cannot overflow. The rule picks the representation, never the
// counts.
func tallyDense(qubits, shots int) bool {
	return qubits <= denseMaxQubits && 1<<uint(qubits) <= shots && uint64(shots) < 1<<32
}

// Tally is a histogram of sampled basis-state indices, the result of every
// count-producing call: a dense []uint32 (the per-shot add is one
// increment) for a batch that passes tallyDense, else one run per chunk,
// which the split fills in ascending index order (see
// FrozenSampler.splitNode), or fewer once merged (Accumulate). Ascending
// and Map read either alike.
type Tally struct {
	dense []uint32 // counts by index; nil when the tally is runs
	runs  []run
}

// run is strictly ascending indices and their positive counts, in
// parallel: a chunk's, or the merge of several (Accumulate). Indices past
// len(n) are single shots awaiting settle.
type run struct {
	idx []uint64
	n   []uint32
	// rank is log₂ of how many adds a wide total's run merges (Accumulate):
	// 0 for a run as drawn.
	rank uint8
}

// NewTally returns an empty tally for shots samples over qubits, dense or
// runs by tallyDense.
func NewTally(qubits, shots int) *Tally { return newTally(qubits, tallyDense(qubits, shots)) }

// newTally returns an empty tally over qubits, dense or not as asked.
func newTally(qubits int, dense bool) *Tally {
	if dense {
		return &Tally{dense: make([]uint32, 1<<uint(qubits))}
	}
	return &Tally{}
}

// TallyRun wraps strictly ascending indices and their positive counts as a
// one-run Tally, without copying them.
func TallyRun(idx []uint64, n []uint32) *Tally { return &Tally{runs: []run{{idx: idx, n: n}}} }

// newRun starts a run tally's next run with room for hint outcomes,
// reusing the storage of a slot that reuse truncated away.
func (t *Tally) newRun(hint int) {
	if t.dense == nil {
		t.runs = slices.Grow(t.runs, 1)[:len(t.runs)+1]
		r := &t.runs[len(t.runs)-1]
		r.idx, r.n = slices.Grow(r.idx[:0], hint), slices.Grow(r.n[:0], hint)
	}
}

// reuse returns an empty tally over qubits, dense or not as asked, drawn
// into t's run storage for a run tally: t's runs are truncated, and newRun
// refills their slices. t must be nil or a run tally, and no one may read
// it after.
func (t *Tally) reuse(qubits int, dense bool) *Tally {
	if t == nil || dense {
		return newTally(qubits, dense)
	}
	t.runs = t.runs[:0]
	return t
}

// Reusable reports whether t may be handed back to TallyParallelContext as
// spare storage: a run tally of at most one run, so at most one chunk's
// worth. A dense tally, or one that holds several chunks' runs, is not
// kept.
func (t *Tally) Reusable() bool { return t.dense == nil && len(t.runs) <= 1 }

// add counts idx n times: a run tally appends it above its last run's
// indices.
func (t *Tally) add(idx uint64, n int) {
	if t.dense != nil {
		t.dense[idx] += uint32(n)
		return
	}
	r := &t.runs[len(t.runs)-1]
	r.idx, r.n = append(r.idx, idx), append(r.n, uint32(n))
}

// shot counts one shot of idx, in any order until the next settle.
func (t *Tally) shot(idx uint64) {
	if t.dense != nil {
		t.dense[idx]++
		return
	}
	r := &t.runs[len(t.runs)-1]
	r.idx = append(r.idx, idx)
}

// settle sorts the last run's single shots, all above its counted indices,
// and coalesces them into counts, so the run ascends strictly again; a
// dense tally has nothing to settle.
func (t *Tally) settle() {
	if len(t.runs) > 0 {
		r := &t.runs[len(t.runs)-1]
		shots := r.idx[len(r.n):]
		slices.Sort(shots)
		r.idx = r.idx[:len(r.n)]
		r.coalesce(shots)
	}
}

// group counts the k ≤ splitMax shots in g[:k], in any order, all above
// the last run's indices: a sorting network orders them and coalesce
// appends them. g lives on the caller's stack; its entries past k are
// overwritten.
func (t *Tally) group(g *[splitMax]uint64, k int) {
	net, width := net16, splitMax
	if k <= 8 {
		net, width = net8, 8
	}
	if k > 1 {
		for i := k; i < width; i++ {
			g[i] = math.MaxUint64
		}
		for _, c := range net {
			i, j := c&(splitMax-1), c>>4 // both below 16: no bounds check
			a, b := g[i], g[j]
			g[i], g[j] = min(a, b), max(a, b)
		}
	}
	t.runs[len(t.runs)-1].coalesce(g[:k])
}

// coalesce appends ascending indices to r, each above r's last, merging
// repeats into one entry with their count. sorted may alias r.idx past its
// length: coalesce writes no further than it has read.
func (r *run) coalesce(sorted []uint64) {
	idx, n := r.idx, r.n
	for i, v := range sorted {
		if i > 0 && idx[len(idx)-1] == v {
			n[len(n)-1]++
		} else {
			idx, n = append(idx, v), append(n, 1)
		}
	}
	r.idx, r.n = idx, n
}

// A group sorts with Batcher's odd-even merge network: a fixed list of
// compare-exchanges, each a min and a max with no branch, so sorting costs
// the same whatever the order of the walks' outcomes. Entries padded with
// MaxUint64 sort last, so the first k of a padded network's output are the
// k real entries in order, even where a real entry is MaxUint64 too.
var (
	net8  = batcher(8)  // 19 comparators
	net16 = batcher(16) // 63 comparators
)

// batcher returns the compare-exchanges of Batcher's odd-even merge sort
// over n ≤ 16 inputs, n a power of two, in the order they must run: one
// byte each, the lower index in the low four bits and the higher in the
// high four.
func batcher(n int) (net []uint8) {
	for p := 1; p < n; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k % p; j+k < n; j += 2 * k {
				for i := 0; i < k && i+j+k < n; i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						net = append(net, uint8(i+j)|uint8(i+j+k)<<4)
					}
				}
			}
		}
	}
	return net
}

// Add adds p's counts into t: element-wise for two dense tallies, by taking
// over p's runs (so p must not change afterwards) for two run tallies, and
// through p's Ascending pairs across representations. p counts outcomes of
// t's register.
func (t *Tally) Add(p *Tally) {
	switch {
	case t.dense != nil && p.dense != nil:
		for idx, n := range p.dense {
			t.dense[idx] += n
		}
	case t.dense == nil && p.dense == nil:
		t.runs = append(t.runs, p.runs...)
	default:
		t.newRun(0)
		p.Ascending(t.add)
	}
}

// accRunShare bounds a run total that Accumulate keeps over a register it
// may tally densely: one run of at most 2^qubits/accRunShare entries.
const accRunShare = 16

// Accumulate adds p's counts into acc, a running total over qubits that
// many chunks' tallies are added into (a job's), and returns the total:
// acc, or a dense tally that replaces it. Readers scan the whole total,
// and one run reads an entry in about a nanosecond where several runs
// merge through Ascending's heap at about 17, so a run total is kept in
// few runs:
//
//   - a dense total is acc.Add(p);
//   - over a register wider than denseMaxQubits, p's run is appended and
//     the runs merge in binary-counter order: two runs that each merge
//     2^r adds become one of 2^(r+1). After c adds the total holds one
//     run per set bit of c, at most ⌊log₂ c⌋+1, and each entry is
//     rewritten at most log₂ c times;
//   - otherwise the total stays one ascending run, rebuilt as the merge of
//     it and p, while the two hold at most 2^qubits/accRunShare entries,
//     and then turns dense for good. The bound keeps a merge under a
//     sixteenth of the dense array's counters and the run under a fifth of
//     its bytes.
//
// The total's shots must stay below 2^32.
func Accumulate(acc, p *Tally, qubits int) *Tally {
	if acc.dense != nil {
		acc.Add(p)
		return acc
	}
	if qubits > denseMaxQubits {
		acc.Add(p)
		for k := len(acc.runs); k >= 2 && acc.runs[k-1].rank == acc.runs[k-2].rank; k-- {
			last := acc.runs[k-2 : k]
			m := mergeRuns(last, len(last[0].idx)+len(last[1].idx))
			m.rank = last[0].rank + 1
			acc.runs = append(acc.runs[:k-2], m)
		}
		return acc
	}
	size := acc.Len() + p.Len()
	if p.dense != nil || size > 1<<uint(qubits)/accRunShare {
		d := newTally(qubits, true)
		d.Add(acc)
		d.Add(p)
		return d
	}
	acc.runs = append(acc.runs[:0], mergeRuns(append(slices.Clip(acc.runs), p.runs...), size))
	return acc
}

// mergeRuns returns the merge of runs as one ascending run, with room for
// size entries.
func mergeRuns(runs []run, size int) run {
	m := run{idx: make([]uint64, 0, size), n: make([]uint32, 0, size)}
	(&Tally{runs: runs}).Ascending(func(idx uint64, n int) {
		m.idx, m.n = append(m.idx, idx), append(m.n, uint32(n))
	})
	return m
}

// Len returns how many (index, count) entries the tally holds: its
// distinct outcomes, or more when several runs repeat an index.
func (t *Tally) Len() int {
	n := 0
	for _, c := range t.dense {
		n += int(min(c, 1))
	}
	for _, r := range t.runs {
		n += len(r.idx)
	}
	return n
}

// Ascending calls f once per sampled outcome, in ascending index order,
// with its count (always positive). Two runs merge side by side; more merge
// k ways: a min-heap of cursors, one per unread run, keyed by the run's
// head index, yields the least head, and its count sums across the runs
// that share it.
func (t *Tally) Ascending(f func(idx uint64, n int)) {
	for idx, n := range t.dense {
		if n != 0 {
			f(uint64(idx), int(n))
		}
	}
	switch len(t.runs) {
	case 1:
		for i, idx := range t.runs[0].idx {
			f(idx, int(t.runs[0].n[i]))
		}
		return
	case 2:
		a, b := &t.runs[0], &t.runs[1]
		i, k := 0, 0
		for i < len(a.idx) && k < len(b.idx) {
			switch x, y := a.idx[i], b.idx[k]; {
			case x < y:
				f(x, int(a.n[i]))
				i++
			case y < x:
				f(y, int(b.n[k]))
				k++
			default:
				f(x, int(a.n[i])+int(b.n[k]))
				i, k = i+1, k+1
			}
		}
		for ; i < len(a.idx); i++ {
			f(a.idx[i], int(a.n[i]))
		}
		for ; k < len(b.idx); k++ {
			f(b.idx[k], int(b.n[k]))
		}
		return
	}
	var small [16]cursor // a 2^20-shot batch's runs fit on the stack
	h := small[:0]
	for r := range t.runs {
		if len(t.runs[r].idx) > 0 {
			h = append(h, cursor{head: t.runs[r].idx[0], run: uint32(r)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		idx, n := h[0].head, 0
		for len(h) > 0 && h[0].head == idx {
			c := &h[0]
			r := &t.runs[c.run]
			n += int(r.n[c.pos])
			if c.pos++; int(c.pos) < len(r.idx) {
				c.head = r.idx[c.pos]
			} else {
				h[0], h = h[len(h)-1], h[:len(h)-1]
			}
			siftDown(h, 0)
		}
		f(idx, n)
	}
}

// cursor is a merge heap slot: a run's head index, the run, and the head's
// position in it. A run holds fewer than 2^32 entries (Counts keeps shots
// below 2^32).
type cursor struct {
	head     uint64
	run, pos uint32
}

// siftDown restores the heap order of h's heads below h[i].
func siftDown(h []cursor, i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].head < h[c].head {
			c++
		}
		if h[i].head <= h[c].head {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// Map returns the counts keyed by basis-state index, sampled outcomes only,
// in one map sized to Len.
func (t *Tally) Map() map[uint64]int {
	counts := make(map[uint64]int, t.Len())
	for idx, n := range t.dense {
		if n != 0 {
			counts[uint64(idx)] = int(n)
		}
	}
	for _, r := range t.runs {
		for i, idx := range r.idx {
			counts[idx] += int(r.n[i])
		}
	}
	return counts
}
