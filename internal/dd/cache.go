package dd

import (
	"math/bits"

	"weaksim/internal/cnum"
)

// Direct-mapped compute caches.
//
// The memoization tables for Mul and Add used to be Go maps, flushed
// wholesale whenever they grew past cacheSize and rebuilt from scratch
// after every GC. Each probe allocated nothing, but each insert paid
// map overhead, the flush threw away every hot entry along with the cold
// ones, and the maps themselves were re-made (1024-bucket allocations) on
// every flush and collection.
//
// The replacement is a direct-mapped table per cache: an entry array indexed
// by a hash of the operand identities. A probe inspects exactly one slot and
// never allocates; a collision simply overwrites (counted as an eviction);
// nothing is ever rehashed.
//
// Entries are deliberately pointer-free: operands and results are recorded
// as arena ids (plus the result weight), so the arrays live in no-scan spans
// the Go GC never traverses — a multi-megabyte cache costs the runtime
// nothing per GC cycle. Ids are as precise as pointers here: an id maps to
// one live node for as long as the Manager's cacheEpoch is unchanged, and
// entries from older epochs are never served.
//
// GC invalidation is per-slot and lazy: every entry records the cacheEpoch
// at insert time, and a probe only accepts a current-epoch entry. GC bumps
// the epoch instead of touching the arrays, so stale entries — which may
// name arena slots that have since been recycled — die in O(1). An epoch
// wrap (2^32 collections) could in principle revalidate an ancient entry,
// but then its operand ids must ALSO match a live probe, and ids plus epoch
// equality is exactly the identity the cache keys on — the entry is still
// correct for those operands or simply never matched.
//
// Sizing is adaptive within the configured bound: a cache starts at
// cacheMinSlots and doubles (discarding its contents — it is a cache;
// correctness never depends on it) whenever the eviction count since the
// last resize reaches the current slot count, i.e. when the working set
// demonstrably thrashes. Small circuits therefore touch a few hundred KB;
// node-heavy builds grow toward the WithCacheSize bound.

// cacheMinSlots is the initial slot count of every compute cache.
const cacheMinSlots = 1 << 12

// cacheNilID marks a nil (terminal/zero) result target in a cache entry.
const cacheNilID = int32(-1)

// cacheSlotsFor converts the configured cacheSize bound into the maximum
// power-of-two slot count (floor, minimum 1): a direct-mapped table of n
// slots holds at most n entries, honoring the WithCacheSize contract.
func cacheSlotsFor(n int) int {
	if n < 1 {
		return 1
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

// cacheStartSlots is the initial allocation for a cache bounded to max.
func cacheStartSlots(max int) int {
	if max < cacheMinSlots {
		return max
	}
	return cacheMinSlots
}

// cachePair mixes two operand ids into a slot hash.
func cachePair(a, b int32) uint64 {
	return mix64(uint64(uint32(a))<<32 | uint64(uint32(b)))
}

// vid records a VEdge result as (weight, id); nodeOf reverses it.
func vid(e VEdge) int32 {
	if e.N == nil {
		return cacheNilID
	}
	return e.N.id
}

func (m *Manager) vNodeOf(id int32, w cnum.Complex) VEdge {
	e := VEdge{W: w}
	if id != cacheNilID {
		e.N = m.varena.at(id)
	}
	return e
}

// mulCEntry memoizes one matrix-vector product op·st (top weights factored
// out): operand ids, result id + weight, and the epoch stamp.
type mulCEntry struct {
	op, st int32
	r      int32
	rW     cnum.Complex
	epoch  uint32
}

type mulCache struct {
	entries []mulCEntry
	thrash  int // evictions since the last resize
}

func (c *mulCache) get(m *Manager, op *MNode, st *VNode) (VEdge, bool) {
	if c.entries == nil {
		return VEdge{}, false
	}
	e := &c.entries[cachePair(op.id, st.id)&uint64(len(c.entries)-1)]
	if e.epoch == m.cacheEpoch && e.op == op.id && e.st == st.id {
		return m.vNodeOf(e.r, e.rW), true
	}
	return VEdge{}, false
}

func (c *mulCache) put(m *Manager, op *MNode, st *VNode, r VEdge) {
	if c.entries == nil {
		c.entries = make([]mulCEntry, cacheStartSlots(m.cacheSlots()))
	} else if c.thrash >= len(c.entries) && len(c.entries) < m.cacheSlots() {
		c.entries = make([]mulCEntry, len(c.entries)*2)
		c.thrash = 0
	}
	e := &c.entries[cachePair(op.id, st.id)&uint64(len(c.entries)-1)]
	if e.epoch == m.cacheEpoch && (e.op != op.id || e.st != st.id) {
		m.cacheEvictions++
		c.thrash++
	}
	*e = mulCEntry{op: op.id, st: st.id, r: vid(r), rW: r.W, epoch: m.cacheEpoch}
}

// addCEntry memoizes one vector addition a + ratio·b for unit-weight
// sub-vectors.
type addCEntry struct {
	a, b  int32
	r     int32
	ratio cnum.Complex
	rW    cnum.Complex
	epoch uint32
}

type addCache struct {
	entries []addCEntry
	thrash  int
}

func addSlotHash(a, b int32, ratio cnum.Complex) uint64 {
	h := cachePair(a, b)
	h = mix64(h ^ wbits(ratio.Re))
	h = mix64(h ^ wbits(ratio.Im))
	return h
}

func (c *addCache) get(m *Manager, a, b *VNode, ratio cnum.Complex) (VEdge, bool) {
	if c.entries == nil {
		return VEdge{}, false
	}
	e := &c.entries[addSlotHash(a.id, b.id, ratio)&uint64(len(c.entries)-1)]
	if e.epoch == m.cacheEpoch && e.a == a.id && e.b == b.id && e.ratio == ratio {
		return m.vNodeOf(e.r, e.rW), true
	}
	return VEdge{}, false
}

func (c *addCache) put(m *Manager, a, b *VNode, ratio cnum.Complex, r VEdge) {
	if c.entries == nil {
		c.entries = make([]addCEntry, cacheStartSlots(m.cacheSlots()))
	} else if c.thrash >= len(c.entries) && len(c.entries) < m.cacheSlots() {
		c.entries = make([]addCEntry, len(c.entries)*2)
		c.thrash = 0
	}
	e := &c.entries[addSlotHash(a.id, b.id, ratio)&uint64(len(c.entries)-1)]
	if e.epoch == m.cacheEpoch && (e.a != a.id || e.b != b.id || e.ratio != ratio) {
		m.cacheEvictions++
		c.thrash++
	}
	*e = addCEntry{a: a.id, b: b.id, r: vid(r), ratio: ratio, rW: r.W, epoch: m.cacheEpoch}
}
