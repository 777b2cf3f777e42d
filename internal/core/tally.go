package core

import "slices"

// denseMaxQubits is the widest register a batch may tally densely: a
// 2^20-entry []uint32 is 4 MiB.
const denseMaxQubits = 20

// tallyDense is the one rule that picks a batch's tally: a dense []uint32
// histogram indexed by basis state when the register is at most
// denseMaxQubits wide and its 2^n states are no more than the shots (so the
// array never holds more counters than a shot-sized map would, and at most
// 4 MiB), else a map. shots must stay below 2^32 so a uint32 counter cannot
// overflow. The rule is fixed; it picks the representation, never the
// counts.
func tallyDense(qubits, shots int) bool {
	return qubits <= denseMaxQubits && 1<<uint(qubits) <= shots && uint64(shots) < 1<<32
}

// Tally is a histogram of sampled basis-state indices, the result of every
// count-producing call. A batch that passes tallyDense counts into a dense
// []uint32 (the per-shot add is one increment, no hashing); any other batch
// counts into a map[uint64]int. Both representations hold the same counts,
// and the accessors hide which one a Tally uses.
type Tally struct {
	dense  []uint32       // counts by index; nil when the tally is a map
	sparse map[uint64]int // counts by index when dense is nil
}

// NewTally returns an empty tally for shots samples over qubits, dense or a
// map by tallyDense.
func NewTally(qubits, shots int) *Tally {
	return newTally(qubits, shots, tallyDense(qubits, shots))
}

// newTally returns an empty tally for a batch of shots over qubits, dense
// or not as asked.
func newTally(qubits, shots int, dense bool) *Tally {
	if dense {
		return &Tally{dense: make([]uint32, 1<<uint(qubits))}
	}
	return &Tally{sparse: make(map[uint64]int, CountsSizeHint(shots, qubits))}
}

// TallyOf wraps an index-keyed histogram as a Tally without copying it;
// the Tally reads counts and must not outlive its owner's changes to it.
func TallyOf(counts map[uint64]int) *Tally { return &Tally{sparse: counts} }

// add counts idx n times.
func (t *Tally) add(idx uint64, n int) {
	if t.dense != nil {
		t.dense[idx] += uint32(n)
	} else {
		t.sparse[idx] += n
	}
}

// Add adds p's counts into t, whatever the representation of either. p
// counts outcomes of t's register: a dense t holds every index p holds.
func (t *Tally) Add(p *Tally) {
	if t.dense != nil && p.dense != nil {
		for idx, n := range p.dense {
			t.dense[idx] += n
		}
		return
	}
	p.Each(t.add)
}

// Each calls f once per sampled outcome with its count (always positive),
// in no particular order: a dense tally visits ascending indices, a map one
// its map order, unsorted.
func (t *Tally) Each(f func(idx uint64, n int)) {
	if t.dense == nil {
		for idx, n := range t.sparse {
			f(idx, n)
		}
		return
	}
	for idx, n := range t.dense {
		if n != 0 {
			f(uint64(idx), int(n))
		}
	}
}

// Ascending calls f once per sampled outcome, in ascending index order,
// with its count (always positive). A map tally sorts its indices first.
func (t *Tally) Ascending(f func(idx uint64, n int)) {
	if t.dense != nil {
		t.Each(f)
		return
	}
	idxs := make([]uint64, 0, len(t.sparse))
	for idx := range t.sparse {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		f(idx, t.sparse[idx])
	}
}

// Map returns the counts keyed by basis-state index, sampled outcomes only.
// A map tally returns its own map; a dense one builds a map sized to its
// distinct outcomes.
func (t *Tally) Map() map[uint64]int {
	if t.dense == nil {
		return t.sparse
	}
	distinct := 0
	t.Each(func(uint64, int) { distinct++ })
	counts := make(map[uint64]int, distinct)
	t.Each(func(idx uint64, n int) { counts[idx] = n })
	return counts
}
