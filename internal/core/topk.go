package core

import (
	"container/heap"
	"fmt"
	"sort"

	"weaksim/internal/dd"
)

// Outcome is a basis state together with its exact Born probability.
type Outcome struct {
	Index       uint64
	Probability float64
}

// TopOutcomes returns the k most probable basis states of the state DD,
// exactly, in descending probability order — without enumerating the 2^n
// amplitudes. It runs a best-first branch-and-bound over root-to-terminal
// paths: a partial path's priority is its probability mass so far times the
// downstream mass below it, which upper-bounds every completion, so the
// first k completed paths popped from the frontier are exactly the k most
// probable outcomes.
//
// This gives exact mode information in the MO regime where the vector-based
// approach cannot even store the distribution (sampling, by contrast, only
// estimates it).
func TopOutcomes(m *dd.Manager, state dd.VEdge, k int) ([]Outcome, error) {
	if state.IsZero() {
		return nil, fmt.Errorf("core: cannot enumerate the zero vector")
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k must be positive")
	}
	snap, err := freezeNormalized(m, state)
	if err != nil {
		return nil, err
	}

	down := downMass(snap)
	pq := &pathQueue{}
	heap.Init(pq)
	heap.Push(pq, pathItem{
		mass: snap.RootWeight().Abs2() * kidDown(down, snap.Root()),
		node: snap.Root(),
		v:    m.Qubits() - 1,
	})

	var out []Outcome
	for pq.Len() > 0 && len(out) < k {
		it := heap.Pop(pq).(pathItem)
		if it.v < 0 {
			// Completed path: by admissibility of the bound, this is the
			// next most probable outcome.
			out = append(out, Outcome{Index: it.idx, Probability: it.mass})
			continue
		}
		nd := snap.At(it.node)
		for bit := uint64(0); bit < 2; bit++ {
			k := nd.Kid[bit]
			if k == dd.SnapZero {
				continue
			}
			child := pathItem{
				mass: it.mass / down[it.node] * nd.W[bit].Abs2() * kidDown(down, k),
				node: k,
				idx:  it.idx | bit<<uint(it.v),
				v:    it.v - 1,
			}
			if child.mass > 0 {
				heap.Push(pq, child)
			}
		}
	}
	// Ties in floating point can pop in arbitrary order; normalize the
	// presentation.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].Index < out[j].Index
	})
	return out, nil
}

type pathItem struct {
	mass float64
	node int32 // snapshot index
	idx  uint64
	v    int
}

type pathQueue []pathItem

func (q pathQueue) Len() int            { return len(q) }
func (q pathQueue) Less(i, j int) bool  { return q[i].mass > q[j].mass }
func (q pathQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pathQueue) Push(x interface{}) { *q = append(*q, x.(pathItem)) }
func (q *pathQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
