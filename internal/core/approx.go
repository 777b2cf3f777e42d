package core

import (
	"fmt"
	"math"

	"weaksim/internal/cnum"
	"weaksim/internal/dd"
)

// Approximate prunes decision-diagram branches whose total traversal
// probability falls below threshold and renormalizes the result. This
// trades fidelity for a smaller diagram — the "weak simulation with some
// error" regime the paper mentions as acceptable (Section III): samples
// from the approximate state follow a distribution whose overlap with the
// exact one equals the returned fidelity.
//
// The decision for each edge uses the upstream probability of its source
// node and the downstream probability of its target (paper Section IV-B):
// the edge's aggregate contribution to the measurement distribution. The
// returned fidelity is |⟨approx|exact⟩|².
func Approximate(m *dd.Manager, state dd.VEdge, threshold float64) (dd.VEdge, float64, error) {
	if state.IsZero() {
		return dd.VEdge{}, 0, fmt.Errorf("core: cannot approximate the zero vector")
	}
	if threshold < 0 || threshold >= 1 {
		return dd.VEdge{}, 0, fmt.Errorf("core: threshold must lie in [0, 1), got %g", threshold)
	}
	if threshold == 0 {
		return state, 1, nil
	}
	snap, err := freezeNormalized(m, state)
	if err != nil {
		return dd.VEdge{}, 0, err
	}

	down, up := downMass(snap), upMass(snap)
	// Rebuild bottom-up from the frozen arrays; memo is indexed by snapshot
	// node (post-order, so every child is visited before its parents).
	memo := make([]dd.VEdge, snap.Len())
	built := make([]bool, snap.Len())
	var rebuild func(i int32) dd.VEdge
	rebuild = func(i int32) dd.VEdge {
		if i == dd.SnapTerminal {
			return dd.VEdge{W: cnum.One}
		}
		if built[i] {
			return memo[i]
		}
		nd := snap.At(i)
		var children [2]dd.VEdge
		for b := 0; b < 2; b++ {
			k := nd.Kid[b]
			if k == dd.SnapZero {
				continue
			}
			contribution := up[i] * nd.W[b].Abs2() * kidDown(down, k)
			if contribution < threshold {
				continue // prune
			}
			sub := rebuild(k)
			if sub.IsZero() {
				continue
			}
			children[b] = dd.VEdge{W: m.Lookup(nd.W[b].Mul(sub.W)), N: sub.N}
		}
		e := m.MakeVNode(int(nd.V), children[0], children[1])
		memo[i], built[i] = e, true
		return e
	}
	rebuilt := rebuild(snap.Root())
	if rebuilt.IsZero() {
		return dd.VEdge{}, 0, fmt.Errorf("core: threshold %g pruned the entire state", threshold)
	}
	approx := dd.VEdge{W: m.Lookup(state.W.Mul(rebuilt.W)), N: rebuilt.N}

	// Renormalize.
	norm2 := m.Norm2(approx)
	if norm2 <= 0 {
		return dd.VEdge{}, 0, fmt.Errorf("core: approximation lost all probability mass")
	}
	approx.W = m.Lookup(approx.W.Scale(1 / math.Sqrt(norm2)))
	fidelity := m.Fidelity(approx, state)
	return approx, fidelity, nil
}
