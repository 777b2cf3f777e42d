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
// compact, index-based flat array of nodes with the per-edge branch
// probabilities, the cumulative 0-branch threshold each walk compares
// against, and the downstream/upstream probability masses (paper Section
// IV-B) precomputed inline. A Snapshot
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
// and upstream mass in one descending pass, replacing the three hash-map
// annotation passes of the pointer-based sampler.

import (
	"context"
	"fmt"

	"weaksim/internal/cnum"
	"weaksim/internal/fault"
	"weaksim/internal/obs"
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
	// P0 is the cumulative 0-branch threshold: a sampling walk draws
	// u ∈ [0,1) and descends to Kid[0] iff u < P0, else to Kid[1]. Under L2
	// normalization P0 is exactly |w0|² (paper Section IV-C); otherwise it
	// is the downstream-renormalized branch probability (Section IV-B).
	P0 float64
	// W holds the outgoing edge weights (zero for zero edges), kept so
	// amplitudes and diagnostics can be reconstructed from the snapshot.
	W [2]cnum.Complex
	// V is the qubit (level) the node decides on.
	V int32
}

// Snapshot is an immutable flat-array view of one state DD, produced by
// Manager.Freeze. It is safe for concurrent use by any number of readers.
type Snapshot struct {
	nqubits int
	norm    Norm
	generic bool // branch probabilities computed by the generic downstream rule

	rootW cnum.Complex
	root  int32

	nodes []SnapNode
	down  []float64 // downstream probability mass per node (Section IV-B)
	up    []float64 // upstream probability mass per node
}

// FreezeOption configures Manager.Freeze.
type FreezeOption func(*freezeConfig)

type freezeConfig struct {
	generic bool
}

// FreezeGeneric forces the generic downstream-renormalized branch
// probabilities even under L2 normalization, where the edge weights alone
// would suffice. Used by the ablation benchmarks to reproduce the
// conventional-normalization sampling rule on any diagram.
func FreezeGeneric() FreezeOption {
	return func(c *freezeConfig) { c.generic = true }
}

// FreezeContext is Freeze with request-scoped trace attribution: when ctx
// carries an obs.RequestTrace (the serving pipeline's per-request span
// tree), the freeze is recorded as a span on that trace — including the
// frozen node count, or the error — so a request's debug=1 breakdown shows
// exactly what ITS freeze cost. With no trace in ctx the overhead is one
// context lookup; Freeze itself is unchanged.
func (m *Manager) FreezeContext(ctx context.Context, root VEdge, opts ...FreezeOption) (*Snapshot, error) {
	rt := obs.TraceFromContext(ctx)
	sp := rt.StartSpan(obs.PhaseFreeze)
	snap, err := m.Freeze(root, opts...)
	if rt != nil {
		if err != nil {
			sp.End(map[string]any{"error": err.Error()})
		} else {
			sp.End(map[string]any{"nodes": snap.Len(), "bytes": snap.Bytes()})
		}
	}
	return snap, err
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
func (m *Manager) Freeze(root VEdge, opts ...FreezeOption) (*Snapshot, error) {
	if root.IsZero() {
		return nil, fmt.Errorf("dd: cannot freeze the zero vector")
	}
	if err := fault.Hit(fault.DDFreeze); err != nil {
		return nil, fmt.Errorf("dd: freeze: %w", err)
	}
	var cfg freezeConfig
	for _, o := range opts {
		o(&cfg)
	}
	fast := !cfg.generic && (m.norm == NormL2 || m.norm == NormL2Phase)

	s := &Snapshot{
		nqubits: m.nqubits,
		norm:    m.norm,
		generic: !fast,
		rootW:   root.W,
	}
	// Build in scratch arrays presized from the unique table, which bounds
	// the reachable node count from above; they are trimmed below.
	if n := min(m.vTab.n, 1<<20); n > 0 {
		s.nodes = make([]SnapNode, 0, n)
		s.down = make([]float64, 0, n)
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
		var sn SnapNode
		sn.V = int32(n.V)
		var d [2]float64
		var downMass float64
		for b := 0; b < 2; b++ {
			e := n.E[b]
			if e.IsZero() {
				sn.Kid[b] = SnapZero
				continue
			}
			sn.Kid[b] = freeze(e.N)
			sn.W[b] = e.W
			dk := 1.0
			if k := sn.Kid[b]; k >= 0 {
				dk = s.down[k]
			}
			d[b] = e.W.Abs2() * dk
			downMass += d[b]
		}
		// The branch threshold reproduces the live sampler's per-walk
		// arithmetic exactly, so frozen walks are bit-for-bit identical to
		// pointer walks for the same random sequence.
		if fast {
			sn.P0 = n.E[0].W.Abs2()
		} else if total := d[0] + d[1]; total > 0 {
			sn.P0 = d[0] / total
		}
		i := int32(len(s.nodes))
		s.nodes = append(s.nodes, sn)
		s.down = append(s.down, downMass)
		seen[n.id] = i + 1
		return i
	}
	s.root = freeze(root.N)
	// Trim the scratch arrays to their length: a cached snapshot should hold
	// exactly the bytes Bytes reports, not the unique table's dead weight.
	s.nodes = exact(s.nodes)
	s.down = exact(s.down)

	// Upstream pass: parents have larger indices than children (post-order),
	// so one descending sweep accumulates root-to-node half-path mass.
	s.up = make([]float64, len(s.nodes))
	if s.root >= 0 {
		s.up[s.root] = root.W.Abs2()
	}
	for i := len(s.nodes) - 1; i >= 0; i-- {
		nd := &s.nodes[i]
		for b := 0; b < 2; b++ {
			if k := nd.Kid[b]; k >= 0 {
				s.up[k] += s.up[i] * nd.W[b].Abs2()
			}
		}
	}
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

// Generic reports whether branch probabilities were computed by the generic
// downstream rule (true under NormLeft or FreezeGeneric) rather than read
// off the L2-normalized edge weights.
func (s *Snapshot) Generic() bool { return s.generic }

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

// Down returns the downstream probability mass of node i: the total
// probability of all half-paths from the node to the terminal under a unit
// incoming weight (paper Section IV-B). Under L2 normalization every value
// is 1 up to the interning tolerance.
func (s *Snapshot) Down(i int32) float64 { return s.down[i] }

// Up returns the upstream probability mass of node i: the total probability
// of all half-paths from the root to the node.
func (s *Snapshot) Up(i int32) float64 { return s.up[i] }

// Traversal returns the absolute probability that a sample's walk visits
// node i: up·down (paper Section IV-B). Values on one level sum to 1 for a
// normalized state.
func (s *Snapshot) Traversal(i int32) float64 { return s.up[i] * s.down[i] }

// exact returns a copy of xs whose capacity equals its length.
func exact[T any](xs []T) []T {
	out := make([]T, len(xs))
	copy(out, xs)
	return out
}

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

// SnapshotStats summarizes a snapshot for CLI and benchmark reporting.
type SnapshotStats struct {
	// Nodes is the frozen node count.
	Nodes int
	// Bytes approximates the resident size of the flat arrays.
	Bytes int
	// Generic reports the branch-probability rule (see Snapshot.Generic).
	Generic bool
}

// Bytes approximates the resident size of the snapshot's flat arrays in
// bytes. It is the unit the serving layer's snapshot LRU accounts cache
// capacity in: an admitted snapshot charges exactly Bytes against the cache
// budget, and evictions release the same amount. The estimate is intentional
// arithmetic over the slice lengths (no unsafe.Sizeof walking), so it is
// stable across architectures and cheap enough to call on every admission.
func (s *Snapshot) Bytes() int {
	const nodeBytes = 8 + 8 + 32 + 4 + 4 // Kid + P0 + W + V + padding
	return len(s.nodes)*nodeBytes + len(s.down)*8 + len(s.up)*8
}

// Stats returns size statistics for the snapshot.
func (s *Snapshot) Stats() SnapshotStats {
	return SnapshotStats{
		Nodes:   len(s.nodes),
		Bytes:   s.Bytes(),
		Generic: s.generic,
	}
}
