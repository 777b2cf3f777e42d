package core

import (
	"fmt"
	"math"

	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
)

// freezeNormalized freezes state scaled to unit norm, so the masses
// computed over the snapshot are probabilities even for an unnormalized
// input (a projection, say). The freeze runs its own invariant audit; its
// error is the caller's error.
func freezeNormalized(m *dd.Manager, state dd.VEdge) (*dd.Snapshot, error) {
	norm := m.Norm2(state)
	if norm <= 0 {
		return nil, fmt.Errorf("core: cannot measure the zero vector")
	}
	state.W = m.Lookup(state.W.Scale(1 / math.Sqrt(norm)))
	return m.Freeze(state)
}

// downMass returns every node's downstream mass: the total probability of
// the half-paths from the node to the terminal under a unit incoming weight
// (paper Section IV-B). A snapshot indexes children before their parents,
// so one ascending pass computes it. Under L2 normalization every value is
// 1 up to the interning tolerance.
func downMass(snap *dd.Snapshot) []float64 {
	nodes := snap.Nodes()
	down := make([]float64, len(nodes))
	for i := range nodes {
		d0, d1 := branchMass(&nodes[i], down)
		down[i] = d0 + d1
	}
	return down
}

// upMass returns every node's upstream mass: the total probability of the
// half-paths from the root to the node, in one descending pass. A node's
// traversal probability is up·down, and the values on one level sum to 1
// for a normalized state.
func upMass(snap *dd.Snapshot) []float64 {
	nodes := snap.Nodes()
	up := make([]float64, len(nodes))
	up[snap.Root()] = snap.RootWeight().Abs2()
	for i := len(nodes) - 1; i >= 0; i-- {
		for b, k := range nodes[i].Kid {
			if k >= 0 {
				up[k] += up[i] * nodes[i].W[b].Abs2()
			}
		}
	}
	return up
}

// branchMass returns the downstream mass below each branch of nd: |w_b|²
// times the mass below its kid.
func branchMass(nd *dd.SnapNode, down []float64) (d0, d1 float64) {
	return nd.W[0].Abs2() * kidDown(down, nd.Kid[0]), nd.W[1].Abs2() * kidDown(down, nd.Kid[1])
}

// kidDown is the downstream mass below a snapshot child index: 1 for the
// terminal, 0 for a zero edge.
func kidDown(down []float64, k int32) float64 {
	switch k {
	case dd.SnapTerminal:
		return 1
	case dd.SnapZero:
		return 0
	}
	return down[k]
}

// MeasureAll performs a destructive measurement of all qubits: it samples
// one basis state and returns it together with the collapsed post-
// measurement state (a basis-state DD). Physical quantum computers only
// offer this destructive operation; repeated non-destructive sampling is
// the luxury of simulation (paper Section IV-B).
func MeasureAll(m *dd.Manager, state dd.VEdge, r *rng.RNG) (uint64, dd.VEdge, error) {
	snap, err := freezeNormalized(m, state)
	if err != nil {
		return 0, dd.VEdge{}, err
	}
	s, err := NewFrozenSampler(snap)
	if err != nil {
		return 0, dd.VEdge{}, err
	}
	idx := s.Sample(r)
	return idx, m.BasisState(idx), nil
}

// QubitProbability returns the probability that measuring the given qubit
// yields 1: the sum, over the qubit's frozen nodes, of upstream mass times
// the 1-edge's share of the downstream mass (paper Section IV-B), in time
// linear in the DD size.
func QubitProbability(m *dd.Manager, state dd.VEdge, qubit int) (float64, error) {
	if qubit < 0 || qubit >= m.Qubits() {
		return 0, fmt.Errorf("core: qubit %d out of range", qubit)
	}
	snap, err := freezeNormalized(m, state)
	if err != nil {
		return 0, err
	}
	down, up := downMass(snap), upMass(snap)
	var p1 float64
	for i, nd := range snap.Nodes() {
		if int(nd.V) == qubit {
			p1 += up[i] * nd.W[1].Abs2() * kidDown(down, nd.Kid[1])
		}
	}
	return p1, nil
}

// MeasureQubit measures a single qubit, collapses the state accordingly,
// and renormalizes. It returns the observed bit and the post-measurement
// state DD.
func MeasureQubit(m *dd.Manager, state dd.VEdge, qubit int, r *rng.RNG) (int, dd.VEdge, error) {
	p1, err := QubitProbability(m, state, qubit)
	if err != nil {
		return 0, dd.VEdge{}, err
	}
	bit := 0
	p := 1 - p1
	if r.Float64() < p1 {
		bit = 1
		p = p1
	}
	collapsed, err := Project(m, state, qubit, bit)
	if err != nil {
		return 0, dd.VEdge{}, err
	}
	// Renormalize by the square root of the observed probability.
	collapsed.W = m.Lookup(collapsed.W.Scale(1 / math.Sqrt(p*m.Norm2(state))))
	return bit, collapsed, nil
}

// Project zeroes the branch of the given qubit that disagrees with bit,
// without renormalizing. The result's squared norm equals the probability
// of the projected outcome (for a normalized input state).
func Project(m *dd.Manager, state dd.VEdge, qubit, bit int) (dd.VEdge, error) {
	if qubit < 0 || qubit >= m.Qubits() {
		return dd.VEdge{}, fmt.Errorf("core: qubit %d out of range", qubit)
	}
	if bit != 0 && bit != 1 {
		return dd.VEdge{}, fmt.Errorf("core: bit must be 0 or 1")
	}
	memo := make(map[*dd.VNode]dd.VEdge)
	var rec func(e dd.VEdge, v int) dd.VEdge
	rec = func(e dd.VEdge, v int) dd.VEdge {
		if e.IsZero() {
			return dd.VEdge{}
		}
		if v < qubit {
			return e
		}
		if sub, ok := memo[e.N]; ok {
			return scaleEdge(m, sub, e.W)
		}
		var out dd.VEdge
		if v == qubit {
			kept := e.N.E[bit]
			var children [2]dd.VEdge
			children[bit] = kept
			out = m.MakeVNode(v, children[0], children[1])
		} else {
			e0 := rec(e.N.E[0], v-1)
			e1 := rec(e.N.E[1], v-1)
			out = m.MakeVNode(v, e0, e1)
		}
		memo[e.N] = out
		return scaleEdge(m, out, e.W)
	}
	return rec(state, m.Qubits()-1), nil
}

func scaleEdge(m *dd.Manager, e dd.VEdge, w cnum.Complex) dd.VEdge {
	if e.IsZero() {
		return dd.VEdge{}
	}
	return dd.VEdge{W: m.Lookup(e.W.Mul(w)), N: e.N}
}
