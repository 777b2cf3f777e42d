package dd

// DD invariant self-checks.
//
// Everything this system serves rests on a handful of structural invariants
// of the decision diagram (Wille, Hillmich & Burgholzer, "Decision Diagrams
// for Quantum Computing", 2023): edge weights normalized per the active
// rule, hash-cons canonicity through the unique table, the zero-edge
// convention, no skipped levels, and — for a quantum state — total
// probability mass 1. A bug (or a bit flip in a persisted snapshot) that
// violates any of them does not crash the sampler; it silently skews every
// count drawn afterwards. So the invariants are checked actively:
// Manager.CheckInvariants walks a live state, Snapshot.Verify audits the
// frozen flat arrays, Freeze verifies its own output before returning, and
// the snapshot store verifies every file it loads before the cache may
// serve from it.
//
// All comparisons use InvariantTol: interning snaps weight components to a
// 1e-10 lattice, and derived quantities accumulate that noise over at most
// MaxQubits levels, so 1e-6 separates real corruption from float dust by
// orders of magnitude on both sides.

import (
	"errors"
	"fmt"
	"math"

	"weaksim/internal/cnum"
)

// InvariantTol is the absolute tolerance of all numeric invariant checks.
const InvariantTol = 1e-6

// ErrInvariant is the root of every invariant-violation error; detect with
// errors.Is. The concrete value is always an *InvariantError naming the
// violated check.
var ErrInvariant = errors.New("dd: invariant violated")

// Invariant check identifiers, used in error reports and metric names
// (dd_invariant_<check>_failures_total).
const (
	CheckZeroEdge   = "zero_edge"  // zero weight ⇔ nil target (below terminal)
	CheckLevels     = "levels"     // children sit exactly one level down
	CheckNormRule   = "norm_rule"  // edge weights obey the active normalization
	CheckCanonicity = "canonicity" // every reachable node is hash-consed in the unique table
	CheckArena      = "arena"      // every node occupies its own arena slot; free slots are truly dead
	CheckTable      = "table"      // unique-table slots, stored hashes, and counts are coherent
	CheckPostOrder  = "post_order" // snapshot children carry smaller indices
	CheckMass       = "mass"       // total probability mass 1
)

// InvariantError reports one violated invariant.
type InvariantError struct {
	// Check is one of the Check* identifiers.
	Check string
	// Detail locates and describes the violation.
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("dd: invariant violated: %s: %s", e.Check, e.Detail)
}

// Unwrap makes errors.Is(err, ErrInvariant) hold.
func (e *InvariantError) Unwrap() error { return ErrInvariant }

func violated(check, format string, args ...any) error {
	return &InvariantError{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// CheckInvariants audits the live state DD rooted at root: the zero-edge
// convention, strict level descent, the active edge-weight normalization
// rule on every reachable node, unique-table canonicity (every reachable
// node is present in the hash-cons table under its own key — the property
// sharing and node counting rest on), and unit total probability mass.
//
// The walk is O(reachable nodes) and read-only. Run it at trust boundaries
// — after strong simulation, before freezing — not per gate. Note that
// canonicity only holds for states whose roots were kept across garbage
// collections; a state deliberately abandoned to GC loses it by design.
func (m *Manager) CheckInvariants(root VEdge) (err error) {
	stop := m.startVerify("check-invariants")
	defer func() { stop(err) }()

	if root.IsZero() {
		return violated(CheckZeroEdge, "state root is the zero edge")
	}
	if root.N == nil {
		return violated(CheckLevels, "state root is a bare terminal for %d qubits", m.nqubits)
	}
	if root.N.V != m.nqubits-1 {
		return violated(CheckLevels, "root node at level %d, want %d", root.N.V, m.nqubits-1)
	}

	down := make(map[*VNode]float64)
	var walk func(n *VNode) (float64, error)
	walk = func(n *VNode) (float64, error) {
		if d, ok := down[n]; ok {
			return d, nil
		}
		// Zero-edge convention and level descent.
		for b := 0; b < 2; b++ {
			e := n.E[b]
			if e.W.IsZero() && e.N != nil {
				return 0, violated(CheckZeroEdge, "level %d node: %d-edge has zero weight but non-nil target", n.V, b)
			}
			if e.IsZero() {
				continue
			}
			if e.N == nil && n.V != 0 {
				return 0, violated(CheckLevels, "level %d node: %d-edge reaches the terminal above level 0", n.V, b)
			}
			if e.N != nil && e.N.V != n.V-1 {
				return 0, violated(CheckLevels, "level %d node: %d-edge skips to level %d", n.V, b, e.N.V)
			}
		}
		// Normalization rule.
		if err := checkNormWeights(m.norm, n.V, n.E[0].W, n.E[1].W); err != nil {
			return 0, err
		}
		// Unique-table canonicity: re-derive the hash from the node's
		// structure (a stale stored hash must not mask a violation) and
		// demand the probe sequence resolves to this very node.
		h := vNodeHash(n.V, n.E[0], n.E[1])
		if got, _, _ := m.vTab.lookup(h, n.V, n.E[0], n.E[1]); got != n {
			return 0, violated(CheckCanonicity,
				"level %d node %p is not the unique-table entry for its structure (found %p)",
				n.V, n, got)
		}
		// Arena residency: the node must occupy the slot its id names.
		if n.id < 0 || n.id >= m.varena.len() || m.varena.at(n.id) != n {
			return 0, violated(CheckArena, "level %d node %p claims arena slot %d it does not occupy", n.V, n, n.id)
		}
		var d float64
		for b := 0; b < 2; b++ {
			e := n.E[b]
			if e.IsZero() {
				continue
			}
			dk := 1.0
			if e.N != nil {
				var werr error
				if dk, werr = walk(e.N); werr != nil {
					return 0, werr
				}
			}
			d += e.W.Abs2() * dk
		}
		down[n] = d
		return d, nil
	}
	rootDown, werr := walk(root.N)
	if werr != nil {
		return werr
	}
	if mass := root.W.Abs2() * rootDown; math.Abs(mass-1) > InvariantTol {
		return violated(CheckMass, "total probability mass %.12f, want 1 ± %g", mass, InvariantTol)
	}
	return nil
}

// CheckStorage audits the node-storage layer wholesale: every unique-table
// slot must hold a node that occupies its own arena slot, stores the hash of
// its own structure, and is found again by its probe sequence; every
// free-list entry must name a truly dead slot (freed level marker, cleared
// successors, no duplicates); and the accounting identity
//
//	table-resident nodes + free slots == arena slots ever issued
//
// must hold for both node kinds — i.e. no node is leaked outside the table
// and no slot is simultaneously live and free. The audit is O(table slots +
// free list) and read-only. Freeze runs it on every call, so corruption in
// the storage layer is caught at the same trust boundary as a corrupt
// snapshot.
func (m *Manager) CheckStorage() (err error) {
	stop := m.startVerify("check-storage")
	defer func() { stop(err) }()
	if err := m.checkVStorage(); err != nil {
		return err
	}
	return m.checkMStorage()
}

func (m *Manager) checkVStorage() error {
	occupied := 0
	for slot, c := range m.vTab.slots {
		if c == nil {
			continue
		}
		occupied++
		if c.id < 0 || c.id >= m.varena.len() || m.varena.at(c.id) != c {
			return violated(CheckArena, "v-table slot %d node %p claims arena slot %d it does not occupy", slot, c, c.id)
		}
		if c.V == freedLevel {
			return violated(CheckTable, "v-table slot %d references freed arena slot %d", slot, c.id)
		}
		if h := vNodeHash(c.V, c.E[0], c.E[1]); c.hash != h {
			return violated(CheckTable, "v-table slot %d node %p stored hash %#x, structure hashes to %#x", slot, c, c.hash, h)
		}
		if got, _, _ := m.vTab.lookup(c.hash, c.V, c.E[0], c.E[1]); got != c {
			return violated(CheckTable, "v-table slot %d node %p unreachable from its probe sequence (lookup found %p)", slot, c, got)
		}
	}
	if occupied != m.vTab.n {
		return violated(CheckTable, "v-table count %d, but %d slots occupied", m.vTab.n, occupied)
	}
	onFree := make([]bool, m.varena.len())
	for _, id := range m.varena.free {
		if id < 0 || id >= m.varena.len() {
			return violated(CheckArena, "v-free-list names slot %d outside the arena (%d issued)", id, m.varena.len())
		}
		if onFree[id] {
			return violated(CheckArena, "v-free-list names slot %d twice", id)
		}
		onFree[id] = true
		n := m.varena.at(id)
		if n.id != id || n.V != freedLevel || n.E != [2]VEdge{} {
			return violated(CheckArena, "v-free-list slot %d still carries structure (level %d)", id, n.V)
		}
	}
	if got := m.vTab.n + len(m.varena.free); got != int(m.varena.len()) {
		return violated(CheckArena, "v-node accounting: %d table-resident + %d free != %d issued",
			m.vTab.n, len(m.varena.free), m.varena.len())
	}
	return nil
}

func (m *Manager) checkMStorage() error {
	occupied := 0
	for slot, c := range m.mTab.slots {
		if c == nil {
			continue
		}
		occupied++
		if c.id < 0 || c.id >= m.marena.len() || m.marena.at(c.id) != c {
			return violated(CheckArena, "m-table slot %d node %p claims arena slot %d it does not occupy", slot, c, c.id)
		}
		if c.V == freedLevel {
			return violated(CheckTable, "m-table slot %d references freed arena slot %d", slot, c.id)
		}
		if h := mNodeHash(c.V, &c.E); c.hash != h {
			return violated(CheckTable, "m-table slot %d node %p stored hash %#x, structure hashes to %#x", slot, c, c.hash, h)
		}
		if got, _, _ := m.mTab.lookup(c.hash, c.V, &c.E); got != c {
			return violated(CheckTable, "m-table slot %d node %p unreachable from its probe sequence (lookup found %p)", slot, c, got)
		}
	}
	if occupied != m.mTab.n {
		return violated(CheckTable, "m-table count %d, but %d slots occupied", m.mTab.n, occupied)
	}
	onFree := make([]bool, m.marena.len())
	for _, id := range m.marena.free {
		if id < 0 || id >= m.marena.len() {
			return violated(CheckArena, "m-free-list names slot %d outside the arena (%d issued)", id, m.marena.len())
		}
		if onFree[id] {
			return violated(CheckArena, "m-free-list names slot %d twice", id)
		}
		onFree[id] = true
		n := m.marena.at(id)
		if n.id != id || n.V != freedLevel || n.E != [4]MEdge{} {
			return violated(CheckArena, "m-free-list slot %d still carries structure (level %d)", id, n.V)
		}
	}
	if got := m.mTab.n + len(m.marena.free); got != int(m.marena.len()) {
		return violated(CheckArena, "m-node accounting: %d table-resident + %d free != %d issued",
			m.mTab.n, len(m.marena.free), m.marena.len())
	}
	return nil
}

// checkNormWeights verifies one outgoing weight pair against the
// normalization scheme. level is only used in error reports.
func checkNormWeights(norm Norm, level int, w0, w1 cnum.Complex) error {
	lead := w0
	if lead.IsZero() {
		lead = w1
	}
	switch norm {
	case NormLeft:
		if !lead.ApproxEq(cnum.One, InvariantTol) {
			return violated(CheckNormRule, "level %d: leftmost non-zero weight %v, want 1 (NormLeft)", level, lead)
		}
	case NormL2Phase:
		if sum := w0.Abs2() + w1.Abs2(); math.Abs(sum-1) > InvariantTol {
			return violated(CheckNormRule, "level %d: |w0|²+|w1|² = %.12f, want 1 ± %g (%s)", level, sum, InvariantTol, norm)
		}
		if math.Abs(lead.Im) > InvariantTol || lead.Re < 0 {
			return violated(CheckNormRule, "level %d: leading weight %v carries a phase (NormL2Phase pulls it out)", level, lead)
		}
	default:
		return violated(CheckNormRule, "unknown normalization scheme %d", int(norm))
	}
	return nil
}

// Verify audits the frozen node array against every invariant the
// sampling walk depends on: post-order child indexing, strict level
// descent, the zero-edge convention mirrored into Kid/W, the edge-weight
// normalization rule, and unit total probability mass, which it computes
// in one ascending downstream pass. It is pure and read-only, and it is the
// gate a persisted snapshot must pass before the cache may serve from it.
func (s *Snapshot) Verify() error {
	n := len(s.nodes)
	if s.nqubits < 1 || s.nqubits > MaxQubits {
		return violated(CheckLevels, "snapshot claims %d qubits", s.nqubits)
	}
	if s.root < 0 || int(s.root) >= n {
		return violated(CheckPostOrder, "root index %d outside [0, %d)", s.root, n)
	}
	if rv := s.nodes[s.root].V; int(rv) != s.nqubits-1 {
		return violated(CheckLevels, "root node at level %d, want %d", rv, s.nqubits-1)
	}

	down := make([]float64, n)
	for i := 0; i < n; i++ {
		nd := &s.nodes[i]
		if nd.V < 0 || int(nd.V) >= s.nqubits {
			return violated(CheckLevels, "node %d at level %d outside [0, %d)", i, nd.V, s.nqubits)
		}
		for b := 0; b < 2; b++ {
			kid := nd.Kid[b]
			switch {
			case kid == SnapZero:
				if !nd.W[b].IsZero() {
					return violated(CheckZeroEdge, "node %d: zero %d-edge carries weight %v", i, b, nd.W[b])
				}
				continue
			case kid == SnapTerminal:
				if nd.V != 0 {
					return violated(CheckLevels, "node %d: terminal %d-edge above level 0 (level %d)", i, b, nd.V)
				}
			case kid >= 0 && int(kid) < i:
				if s.nodes[kid].V != nd.V-1 {
					return violated(CheckLevels, "node %d (level %d): %d-edge skips to level %d", i, nd.V, b, s.nodes[kid].V)
				}
			default:
				return violated(CheckPostOrder, "node %d: %d-edge index %d violates post-order", i, b, kid)
			}
			if nd.W[b].IsZero() {
				return violated(CheckZeroEdge, "node %d: non-zero %d-edge carries zero weight", i, b)
			}
			dk := 1.0
			if kid >= 0 {
				dk = down[kid]
			}
			down[i] += nd.W[b].Abs2() * dk
		}
		if err := checkNormWeights(s.norm, int(nd.V), nd.W[0], nd.W[1]); err != nil {
			return err
		}
	}
	if mass := s.rootW.Abs2() * down[s.root]; math.Abs(mass-1) > InvariantTol {
		return violated(CheckMass, "total probability mass %.12f, want 1 ± %g", mass, InvariantTol)
	}
	return nil
}
