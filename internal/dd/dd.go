// Package dd implements edge-weighted decision diagrams for quantum states
// (vector DDs) and quantum operations (matrix DDs).
//
// A vector DD represents a 2^n-element complex vector. Each node splits the
// vector into two halves on one qubit: the 0-successor (left edge) covers
// the half where that qubit is |0⟩, the 1-successor (right edge) the half
// where it is |1⟩. Identical sub-vectors are shared via a unique table, and
// common factors are pulled out into edge weights, so the amplitude of a
// basis state is the product of the edge weights along its root-to-terminal
// path. Matrix DDs split a 2^n x 2^n matrix into four quadrants per level in
// the same fashion.
//
// Conventions used throughout this package:
//
//   - Qubit q0 is the least significant bit of a basis-state index and sits
//     at the lowest level; qubit q_{n-1} is the most significant and labels
//     the root node (matching the paper's Fig. 4).
//   - Levels are never skipped: every non-zero edge at level v points to a
//     node labeled v, and every root-to-terminal path of an n-qubit DD has
//     exactly n nodes. Redundant nodes (equal children) are kept, as is
//     standard for quantum decision diagrams.
//   - The all-zero (sub-)vector is represented by the zero edge: weight 0,
//     nil target. A nil target with non-zero weight is the terminal and only
//     appears below level 0.
//
// The Manager owns the unique tables, the weight canonicalization tolerance,
// the compute caches, and a mark-and-sweep garbage collector. All operations
// on edges must go through the Manager that created them. A Manager is not
// safe for concurrent use.
package dd

import (
	"fmt"
	"slices"

	"weaksim/internal/cnum"
)

// Norm selects the edge-weight normalization scheme applied when a vector
// node is created. The scheme decides which common factor of the two
// outgoing edge weights is pulled up into the incoming edge.
type Norm int

const (
	// NormL2Phase, the zero value, divides both outgoing weights by their
	// Euclidean norm and by the phase of the leftmost non-zero one. The
	// weights' squared magnitudes are the branch probabilities (the
	// paper's Section IV-C, Fig. 4d), and equal sub-vectors share a node
	// whatever global phase they arrive with (canonical up to the
	// interning tolerance).
	NormL2Phase Norm = iota
	// NormLeft divides both outgoing weights by the leftmost non-zero
	// weight. This is the conventional scheme the paper uses as the point
	// of comparison (Fig. 4b).
	NormLeft
)

// normNames and wireCodes give each scheme its flag name and the byte that
// names it in a snapshot frame and a circuit key. The codes predate
// NormL2Phase becoming the zero value, so frames and keys did not move;
// code 1 named a retired scheme that left the phase free.
var (
	normNames = [...]string{NormL2Phase: "l2phase", NormLeft: "left"}
	wireCodes = [...]byte{NormL2Phase: 2, NormLeft: 0}
)

// String returns the scheme name used in benchmarks and CLI flags.
func (n Norm) String() string {
	if n < 0 || int(n) >= len(normNames) {
		return fmt.Sprintf("Norm(%d)", int(n))
	}
	return normNames[n]
}

// ParseNorm converts a CLI flag value into a Norm.
func ParseNorm(s string) (Norm, error) {
	if i := slices.Index(normNames[:], s); i >= 0 {
		return Norm(i), nil
	}
	return 0, fmt.Errorf("dd: unknown normalization scheme %q (want l2phase or left)", s)
}

// Wire returns the scheme's wire code, or 0xff for a value that names no
// scheme.
func (n Norm) Wire() byte {
	if n < 0 || int(n) >= len(wireCodes) {
		return 0xff
	}
	return wireCodes[n]
}

// Control describes a control qubit of a quantum operation. A negative
// control activates the operation when the qubit is |0⟩.
type Control struct {
	Qubit    int
	Negative bool
}

// Pos is shorthand for a positive control on qubit q.
func Pos(q int) Control { return Control{Qubit: q} }

// Neg is shorthand for a negative control on qubit q.
func Neg(q int) Control { return Control{Qubit: q, Negative: true} }

// DefaultCacheSize bounds each compute cache (entries). Each cache is a
// direct-mapped table whose slot count is the power-of-two floor of this
// bound; colliding entries overwrite each other. Correctness never depends
// on cache contents.
const DefaultCacheSize = 1 << 20

// DefaultGCThreshold is the unique-table size past which ShouldGC reports
// true. Simulation drivers consult it between gate applications.
const DefaultGCThreshold = 1 << 21

// Manager owns all tables backing a family of decision diagrams.
type Manager struct {
	nqubits int
	norm    Norm
	ctab    *cnum.Table

	// Node storage: all nodes live in per-manager slab arenas; canonicity
	// goes through open-addressing unique tables over the arena nodes.
	varena vArena
	marena mArena
	vTab   vTable
	mTab   mTable

	// Compute caches: fixed-size direct-mapped tables, lazily allocated on
	// first insert, invalidated per-slot via cacheEpoch (bumped by GC).
	mulCache   mulCache
	addCache   addCache
	cacheSize  int
	cacheEpoch uint32

	gcThreshold int
	nodeBudget  int // 0 = unlimited; see WithNodeBudget
	peakNodes   int
	gen         uint32
	obs         *ddMetrics // nil = telemetry disabled; see SetObserver

	// counters for instrumentation
	vHits, vMisses uint64
	mHits, mMisses uint64
	mulHits        uint64
	mulMisses      uint64
	addHits        uint64
	addMisses      uint64
	uniqueProbes   uint64 // cumulative unique-table slot inspections
	uniqueLookups  uint64 // unique-table lookups (v + m)
	cacheEvictions uint64 // compute-cache entries overwritten by collisions
	gcRuns         uint64
}

// Option configures a Manager.
type Option func(*Manager)

// WithNormalization selects the vector-node normalization scheme. The
// default is the zero value, NormL2Phase.
func WithNormalization(n Norm) Option { return func(m *Manager) { m.norm = n } }

// WithCacheSize bounds the compute caches to n entries each.
func WithCacheSize(n int) Option { return func(m *Manager) { m.cacheSize = n } }

// WithGCThreshold sets the unique-table size past which ShouldGC reports
// true.
func WithGCThreshold(n int) Option { return func(m *Manager) { m.gcThreshold = n } }

// MaxQubits bounds the register width: basis-state indices are uint64.
const MaxQubits = 64

// New creates a Manager for n-qubit decision diagrams.
func New(nqubits int, opts ...Option) *Manager {
	if nqubits < 1 {
		panic("dd: manager needs at least one qubit")
	}
	if nqubits > MaxQubits {
		panic("dd: at most 64 qubits are supported (indices are uint64)")
	}
	m := &Manager{
		nqubits:     nqubits,
		ctab:        cnum.NewTable(),
		vTab:        newVTable(),
		mTab:        newMTable(),
		cacheSize:   DefaultCacheSize,
		gcThreshold: DefaultGCThreshold,
		cacheEpoch:  1, // zero-valued cache entries (epoch 0) never match
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// cacheSlots returns the per-cache slot count derived from the configured
// cacheSize bound.
func (m *Manager) cacheSlots() int { return cacheSlotsFor(m.cacheSize) }

// Qubits returns the number of qubits the Manager was created for.
func (m *Manager) Qubits() int { return m.nqubits }

// Normalization returns the active vector normalization scheme.
func (m *Manager) Normalization() Norm { return m.norm }

// Tolerance returns the weight canonicalization tolerance.
func (m *Manager) Tolerance() float64 { return m.ctab.Tolerance() }

// Lookup canonicalizes a complex value on the Manager's weight grid.
// Exported for packages that construct DDs node by node.
func (m *Manager) Lookup(c cnum.Complex) cnum.Complex { return m.ctab.Lookup(c) }

// Stats reports the current table and cache occupancy.
type Stats struct {
	VNodes, MNodes int
	PeakNodes      int
	// MulEntries/AddEntries report the allocated direct-mapped slot count
	// of the matrix-vector and vector-add caches (0 until first use).
	MulEntries         int
	AddEntries         int
	VHits, VMisses     uint64
	MHits, MMisses     uint64
	MulHits, MulMisses uint64
	AddHits, AddMisses uint64
	UniqueProbeSteps   uint64 // cumulative unique-table slot inspections
	UniqueLookups      uint64 // unique-table lookups across both tables
	CacheEvictions     uint64 // compute-cache entries overwritten by collisions
	ArenaSlabs         int    // allocated node slabs across both arenas
	FreelistLen        int    // recycled-and-unused arena slots
	GCRuns             uint64
}

// TableStats returns a snapshot of table and cache statistics. Reading a
// snapshot refreshes the peak-node high-water mark, so PeakNodes is never
// stale relative to the live count a reader observes.
func (m *Manager) TableStats() Stats {
	m.refreshPeak()
	return Stats{
		VNodes: m.vTab.n, MNodes: m.mTab.n,
		PeakNodes:  m.peakNodes,
		MulEntries: len(m.mulCache.entries), AddEntries: len(m.addCache.entries),
		VHits: m.vHits, VMisses: m.vMisses,
		MHits: m.mHits, MMisses: m.mMisses,
		MulHits: m.mulHits, MulMisses: m.mulMisses,
		AddHits: m.addHits, AddMisses: m.addMisses,
		UniqueProbeSteps: m.uniqueProbes,
		UniqueLookups:    m.uniqueLookups,
		CacheEvictions:   m.cacheEvictions,
		ArenaSlabs:       len(m.varena.slabs) + len(m.marena.slabs),
		FreelistLen:      len(m.varena.free) + len(m.marena.free),
		GCRuns:           m.gcRuns,
	}
}
