package dd

import "weaksim/internal/cnum"

// VNode is a vector decision-diagram node. It splits a sub-vector on qubit
// V: E[0] covers the half where qubit V is |0⟩, E[1] the half where it is
// |1⟩. Nodes are hash-consed by the owning Manager; compare them by pointer.
type VNode struct {
	// V is the qubit (level) this node decides on.
	V int
	// E holds the 0-successor and 1-successor edges.
	E [2]VEdge

	hash  uint64  // unique-table hash of (V, E), computed once at creation
	norm2 float64 // squared norm of the sub-vector under a unit incoming weight
	id    int32   // arena slot index, stable for the Manager's lifetime
	gen   uint32  // GC mark, managed by Manager.GC
}

// VEdge is a weighted edge to a vector node. The zero value is the zero
// edge, which represents an all-zero sub-vector. An edge with a nil target
// and non-zero weight is a terminal edge carrying a scalar amplitude factor.
type VEdge struct {
	W cnum.Complex
	N *VNode
}

// IsZero reports whether e is the zero edge (all-zero sub-vector).
func (e VEdge) IsZero() bool { return e.W.IsZero() }

// norm2 returns the squared Euclidean norm of the sub-vector e represents.
// Under NormL2Phase a node's own norm is 1 and this is |W|²; under NormLeft
// it is not, since a weight there is only the first non-zero amplitude.
func (e VEdge) norm2() float64 {
	if e.N == nil {
		return e.W.Abs2()
	}
	return e.W.Abs2() * e.N.norm2
}

// MNode is a matrix decision-diagram node. It splits a sub-matrix into four
// quadrants on qubit V: E[2*r+c] covers the quadrant with row bit r and
// column bit c of qubit V.
type MNode struct {
	V int
	E [4]MEdge

	hash uint64 // unique-table hash of (V, E), computed once at creation
	id   int32  // arena slot index, stable for the Manager's lifetime
	gen  uint32
	// ident marks nodes whose sub-matrix is exactly the identity; the
	// multiply routines shortcut them. Computed once at node creation.
	ident bool
}

// IsIdentity reports whether the node's sub-matrix is exactly the identity.
func (n *MNode) IsIdentity() bool { return n.ident }

// MEdge is a weighted edge to a matrix node. The zero value represents an
// all-zero sub-matrix; a nil target with non-zero weight is a terminal
// scalar.
type MEdge struct {
	W cnum.Complex
	N *MNode
}

// IsZero reports whether e is the zero edge (all-zero sub-matrix).
func (e MEdge) IsZero() bool { return e.W.IsZero() }
