package dd

// Freeze-then-sample: immutable state-DD snapshots.
//
// A live decision diagram is owned by its Manager — nodes are hash-consed
// through the unique table, garbage-collected, and mutated by every gate
// application, so the Manager is not safe for concurrent use. Once strong
// simulation finishes, however, the final state is a read-only DAG ("the DD
// is final" — Wille/Hillmich/Burgholzer, Decision Diagrams for Quantum
// Computing), and the sampling hot loop needs none of the Manager's
// machinery.
//
// Freeze exploits that: it walks the state once and emits a Snapshot — a
// compact, index-based flat array of nodes, each its two kids, its two edge
// weights and its level. The snapshot is the DD and nothing derived from
// it: the branch probabilities and masses a sampler or a measurement reads
// (paper Section IV-B) are computed from it by package core. A Snapshot
//
//   - contains no pointers into the Manager's tables (node references are
//     int32 indices, weights are value structs), so the Manager may be
//     garbage-collected, reset, or reused for the next circuit while
//     sampling proceeds;
//   - is immutable after construction and therefore safe for lock-free
//     concurrent reads from any number of sampling workers without atomics
//     on the read path — the happens-before edge is whatever handed the
//     *Snapshot to the goroutine (channel send, WaitGroup, go statement);
//   - can never hit the node budget or the GC: freezing allocates plain
//     slices outside the Manager's accounting, so once a state is frozen,
//     sampling cannot fail with ErrNodeBudget (no MO/TO during annotation).
//
// Node indexing is post-order: both children of a node always carry smaller
// indices than the node itself (terminal and zero edges use negative
// sentinels). Downstream mass is therefore computable in one ascending pass
// and upstream mass in one descending pass.

import (
	"context"
	"fmt"

	"weaksim/internal/cnum"
	"weaksim/internal/fault"
)

// Sentinel child indices of a SnapNode. All non-negative indices refer into
// the snapshot's node array.
const (
	// SnapTerminal marks an edge to the terminal: the walk ends below it.
	SnapTerminal int32 = -1
	// SnapZero marks a zero edge (all-zero sub-vector, probability 0).
	SnapZero int32 = -2
)

// SnapNode is one frozen decision-diagram node. The struct is plain data —
// no pointers into the owning Manager — and is never mutated after Freeze
// returns.
type SnapNode struct {
	// Kid holds the 0- and 1-successor as indices into the snapshot's node
	// array, or SnapTerminal / SnapZero.
	Kid [2]int32
	// W holds the outgoing edge weights (zero for zero edges).
	W [2]cnum.Complex
	// V is the qubit (level) the node decides on.
	V int32
}

// Snapshot is an immutable flat-array view of one state DD, produced by
// Manager.Freeze. It is safe for concurrent use by any number of readers.
type Snapshot struct {
	nqubits int
	norm    Norm

	rootW cnum.Complex
	root  int32

	nodes []SnapNode
}

// FreezeContext is Freeze; ctx is not consulted. Callers that time the
// freeze do so with one obs.StartSpan around Freeze.
//
// Deprecated: call Freeze. FreezeContext remains only for callers written
// against its earlier signature.
func (m *Manager) FreezeContext(_ context.Context, root VEdge) (*Snapshot, error) {
	return m.Freeze(root)
}

// Freeze converts the live state DD rooted at root into an immutable
// Snapshot. The state itself is not modified; after Freeze returns, the
// Manager may be reused for further simulation (or garbage-collected
// entirely) without invalidating the Snapshot — this is the
// manager-reuse-after-freeze guarantee the parallel sampler relies on.
//
// Freezing is a single O(nodes) traversal and allocates only flat slices,
// outside the Manager's node budget: a frozen state can always be sampled,
// regardless of budget pressure on the live tables.
func (m *Manager) Freeze(root VEdge) (*Snapshot, error) {
	if root.IsZero() {
		return nil, fmt.Errorf("dd: cannot freeze the zero vector")
	}
	if err := fault.Hit(fault.DDFreeze); err != nil {
		return nil, fmt.Errorf("dd: freeze: %w", err)
	}
	s := &Snapshot{
		nqubits: m.nqubits,
		norm:    m.norm,
		rootW:   root.W,
	}
	// Build in a scratch array presized from the unique table, which bounds
	// the reachable node count from above; it is trimmed below.
	if n := min(m.vTab.n, 1<<20); n > 0 {
		s.nodes = make([]SnapNode, 0, n)
	}
	// Dedup via the arena: node ids are dense indices, so a flat scratch
	// slice replaces the map[*VNode]int32 the pre-arena freeze paid one hash
	// per visit for. Entries store index+1; 0 means unseen.
	seen := make([]int32, m.varena.len())
	var freeze func(n *VNode) int32
	freeze = func(n *VNode) int32 {
		if n == nil {
			return SnapTerminal
		}
		if i := seen[n.id]; i != 0 {
			return i - 1
		}
		sn := SnapNode{V: int32(n.V)}
		for b := 0; b < 2; b++ {
			e := n.E[b]
			if e.IsZero() {
				sn.Kid[b] = SnapZero
				continue
			}
			sn.Kid[b] = freeze(e.N)
			sn.W[b] = e.W
		}
		i := int32(len(s.nodes))
		s.nodes = append(s.nodes, sn)
		seen[n.id] = i + 1
		return i
	}
	s.root = freeze(root.N)
	// Trim the scratch array to its length: a cached snapshot should hold
	// exactly the bytes Bytes reports, not the unique table's dead weight.
	s.nodes = append(make([]SnapNode, 0, len(s.nodes)), s.nodes...)

	// Freeze-time self-check: a snapshot that fails its own invariants must
	// never reach a sampler (or a disk file), and a freeze over corrupted
	// node storage (arena/table divergence) must fail equally loudly. Both
	// audits are O(nodes), like the freeze itself.
	stop := m.startVerify("freeze")
	err := s.Verify()
	if err == nil {
		err = m.CheckStorage()
	}
	stop(err)
	if err != nil {
		return nil, fmt.Errorf("dd: freeze produced an invalid snapshot: %w", err)
	}
	return s, nil
}

// Qubits returns the register width of the frozen state.
func (s *Snapshot) Qubits() int { return s.nqubits }

// Norm returns the normalization scheme the state was built under.
func (s *Snapshot) Norm() Norm { return s.norm }

// Len returns the number of frozen nodes (the paper's "size" column).
func (s *Snapshot) Len() int { return len(s.nodes) }

// Root returns the root node index (SnapTerminal for a terminal root edge).
func (s *Snapshot) Root() int32 { return s.root }

// RootWeight returns the root edge weight.
func (s *Snapshot) RootWeight() cnum.Complex { return s.rootW }

// At returns the node at index i.
func (s *Snapshot) At(i int32) SnapNode { return s.nodes[i] }

// Nodes returns the backing node array. It is shared, not copied: callers
// must treat it as read-only. Exposed so the sampling hot loop can walk the
// flat array without a bounds-checked accessor per step.
func (s *Snapshot) Nodes() []SnapNode { return s.nodes }

// Amplitude returns the amplitude of basis state idx, computed from the
// frozen arrays alone — the product of edge weights along the path the bits
// of idx select.
func (s *Snapshot) Amplitude(idx uint64) cnum.Complex {
	acc := s.rootW
	cur := s.root
	for v := s.nqubits - 1; v >= 0; v-- {
		if cur < 0 {
			// Terminal above level 0 cannot happen in a well-formed state;
			// treat defensively as zero amplitude.
			return cnum.Zero
		}
		nd := &s.nodes[cur]
		b := idx >> uint(v) & 1
		if nd.Kid[b] == SnapZero {
			return cnum.Zero
		}
		acc = acc.Mul(nd.W[b])
		cur = nd.Kid[b]
	}
	return acc
}

// Bytes is the resident size of the snapshot's node array in bytes, 48
// per node (kids, weights, level and padding). The serving layer's
// snapshot LRU charges an entry Bytes plus its sampler's walk table. The
// estimate is arithmetic over the slice length (no unsafe.Sizeof walking),
// so it is stable across architectures and cheap enough to call on every
// admission.
func (s *Snapshot) Bytes() int {
	const nodeBytes = 8 + 32 + 4 + 4 // Kid + W + V + padding
	return len(s.nodes) * nodeBytes
}
