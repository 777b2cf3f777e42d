package dd

import (
	"math"

	"weaksim/internal/cnum"
)

// MakeVNode creates (or finds) the vector node at level v with successors
// e0 and e1, applies the Manager's normalization scheme, and returns the
// normalized edge pointing at it. The weight of the returned edge carries
// the factor pulled out of the successors; callers must multiply it into
// whatever incoming weight they hold.
//
// Both successors must either be zero edges or sit at level v-1 (terminal
// edges for v == 0).
func (m *Manager) MakeVNode(v int, e0, e1 VEdge) VEdge {
	if v < 0 || v >= m.nqubits {
		panic("dd: MakeVNode level out of range")
	}
	return m.makeVNode(v, e0, e1)
}

func (m *Manager) makeVNode(v int, e0, e1 VEdge) VEdge {
	if e0.IsZero() && e1.IsZero() {
		return VEdge{}
	}
	// Drop a successor whose sub-vector norm is below ε =
	// tolerance·cnum.GridRatio times its sibling's before dividing by it:
	// it is a zero, or an exact zero gone to rounding noise by cancellation
	// (DESIGN.md, "Numerical design"). Either way it becomes the zero edge.
	// The norms, not the weights, are compared: under NormLeft a weight is
	// only the first non-zero amplitude of its sub-vector.
	eps := m.ctab.Tolerance() * cnum.GridRatio
	if a0, a1 := e0.norm2(), e1.norm2(); a0 < eps*eps*a1 {
		e0 = VEdge{}
	} else if a1 < eps*eps*a0 {
		e1 = VEdge{}
	}

	f := m.normFactor(e0.W, e1.W)
	e0.W = m.ctab.Lookup(e0.W.Div(f))
	e1.W = m.ctab.Lookup(e1.W.Div(f))
	// Interning may flush a tiny weight to exactly zero; keep the zero-edge
	// invariant (zero weight implies nil target).
	if e0.W.IsZero() {
		e0 = VEdge{}
	}
	if e1.W.IsZero() {
		e1 = VEdge{}
	}

	h := vNodeHash(v, e0, e1)
	n, slot, probes := m.vTab.lookup(h, v, e0, e1)
	m.uniqueLookups++
	m.uniqueProbes += uint64(probes)
	if n != nil {
		m.vHits++
	} else {
		m.vMisses++
		n = m.varena.alloc()
		n.V = v
		n.E = [2]VEdge{e0, e1}
		n.hash = h
		n.norm2 = e0.norm2() + e1.norm2()
		m.vTab.insert(slot, n)
		m.noteGrowth()
	}
	return VEdge{W: m.ctab.Lookup(f), N: n}
}

// normFactor returns the common factor to divide out of the weight pair
// (w0, w1), at least one of which is non-zero.
func (m *Manager) normFactor(w0, w1 cnum.Complex) cnum.Complex {
	lead := w0
	if lead.IsZero() {
		lead = w1
	}
	switch m.norm {
	case NormL2Phase:
		return cnum.FromPolar(math.Sqrt(w0.Abs2()+w1.Abs2()), lead.Phase())
	case NormLeft:
		return lead
	default:
		panic("dd: unknown normalization scheme")
	}
}

// MakeMNode creates (or finds) the matrix node at level v with the four
// quadrant successors e (indexed by 2*rowBit+colBit) and returns the
// normalized edge pointing at it.
//
// Matrix nodes are always normalized by the entry of largest magnitude
// (ties broken by lowest index); the vector normalization scheme does not
// apply to operators.
func (m *Manager) MakeMNode(v int, e [4]MEdge) MEdge {
	if v < 0 || v >= m.nqubits {
		panic("dd: MakeMNode level out of range")
	}
	return m.makeMNode(v, e)
}

func (m *Manager) makeMNode(v int, e [4]MEdge) MEdge {
	allZero := true
	for i := range e {
		if e[i].W.IsZero() {
			e[i] = MEdge{}
		} else {
			allZero = false
		}
	}
	if allZero {
		return MEdge{}
	}

	// Normalize by the largest-magnitude weight for numerical stability.
	best, bestMag := 0, -1.0
	for i := range e {
		if mag := e[i].W.Abs2(); mag > bestMag {
			best, bestMag = i, mag
		}
	}
	f := e[best].W
	for i := range e {
		e[i].W = m.ctab.Lookup(e[i].W.Div(f))
		if e[i].W.IsZero() {
			e[i] = MEdge{}
		}
	}

	h := mNodeHash(v, &e)
	n, slot, probes := m.mTab.lookup(h, v, &e)
	m.uniqueLookups++
	m.uniqueProbes += uint64(probes)
	if n != nil {
		m.mHits++
	} else {
		m.mMisses++
		n = m.marena.alloc()
		n.V = v
		n.E = e
		n.hash = h
		n.ident = e[1].IsZero() && e[2].IsZero() &&
			e[0].W == cnum.One && e[3].W == cnum.One &&
			e[0].N == e[3].N && (e[0].N == nil || e[0].N.ident)
		m.mTab.insert(slot, n)
		m.noteGrowth()
	}
	return MEdge{W: m.ctab.Lookup(f), N: n}
}
