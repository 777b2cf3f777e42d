package core

import "slices"

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
// FrozenSampler.splitNode). Ascending and Map read either alike.
type Tally struct {
	dense []uint32 // counts by index; nil when the tally is runs
	runs  []run
}

// run is one chunk's strictly ascending indices and their positive counts,
// in parallel. Indices past len(n) are single shots awaiting settle.
type run struct {
	idx []uint64
	n   []uint32
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
func TallyRun(idx []uint64, n []uint32) *Tally { return &Tally{runs: []run{{idx, n}}} }

// newRun starts a run tally's next run with room for hint outcomes, reusing
// the storage of a slot a reset truncated away.
func (t *Tally) newRun(hint int) {
	if t.dense == nil {
		t.runs = slices.Grow(t.runs, 1)[:len(t.runs)+1]
		if r := &t.runs[len(t.runs)-1]; r.idx == nil {
			r.idx, r.n = make([]uint64, 0, hint), make([]uint32, 0, hint)
		} else {
			r.idx, r.n = r.idx[:0], r.n[:0]
		}
	}
}

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

// settle sorts the last run's single shots and coalesces them into counts;
// a dense tally has nothing to settle.
func (t *Tally) settle() {
	if len(t.runs) > 0 {
		t.runs[len(t.runs)-1].settle()
	}
}

// settle sorts r's single shots, all above its counted indices, and
// coalesces repeats into counts, so r ascends strictly again.
func (r *run) settle() {
	from, k := len(r.n), len(r.n)
	slices.Sort(r.idx[from:])
	for _, idx := range r.idx[from:] {
		if k > from && r.idx[k-1] == idx {
			r.n[k-1]++
		} else {
			r.idx[k], r.n = idx, append(r.n, 1)
			k++
		}
	}
	r.idx = r.idx[:k]
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
// with its count (always positive). Several runs merge k ways: a min-heap of
// the runs' unread tails, keyed by their heads, yields the least head, and
// its count sums across the runs that share it.
func (t *Tally) Ascending(f func(idx uint64, n int)) {
	for idx, n := range t.dense {
		if n != 0 {
			f(uint64(idx), int(n))
		}
	}
	if len(t.runs) == 1 {
		for i, idx := range t.runs[0].idx {
			f(idx, int(t.runs[0].n[i]))
		}
		return
	}
	h := make([]run, 0, len(t.runs))
	for _, r := range t.runs {
		if len(r.idx) > 0 {
			h = append(h, r)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		idx, n := h[0].idx[0], 0
		for len(h) > 0 && h[0].idx[0] == idx {
			n += int(h[0].n[0])
			if h[0].idx, h[0].n = h[0].idx[1:], h[0].n[1:]; len(h[0].idx) == 0 {
				h[0], h = h[len(h)-1], h[:len(h)-1]
			}
			siftDown(h, 0)
		}
		f(idx, n)
	}
}

// siftDown restores the heap order of h's run heads below h[i].
func siftDown(h []run, i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].idx[0] < h[c].idx[0] {
			c++
		}
		if h[i].idx[0] <= h[c].idx[0] {
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
