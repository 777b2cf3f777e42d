package core

import (
	"math"

	"weaksim/internal/dd"
	"weaksim/internal/rng"
)

// liveSampler is the pointer walk over the live diagram that FrozenSampler
// replaced, kept as an independent test oracle: under NormLeft it computes
// its own downstream masses by recursion over live nodes, never reading a
// dd.Snapshot.
type liveSampler struct {
	m       *dd.Manager
	root    dd.VEdge
	down    map[*dd.VNode]float64 // nil under L2 normalization
	renorms uint64
}

func newLiveSampler(m *dd.Manager, root dd.VEdge) *liveSampler {
	s := &liveSampler{m: m, root: root}
	if m.Normalization() == dd.NormLeft {
		s.down = map[*dd.VNode]float64{}
	}
	return s
}

// downOf is the downstream mass below n (1 for the terminal), memoized.
func (s *liveSampler) downOf(n *dd.VNode) float64 {
	if n == nil {
		return 1
	}
	if d, ok := s.down[n]; ok {
		return d
	}
	d := n.E[0].W.Abs2()*s.downOf(n.E[0].N) + n.E[1].W.Abs2()*s.downOf(n.E[1].N)
	s.down[n] = d
	return d
}

func (s *liveSampler) Qubits() int { return s.m.Qubits() }

// Sample decodes one draw through the frozen walk's step, on thresholds it
// converts from its own P0 with the same threshold rule.
func (s *liveSampler) Sample(r *rng.RNG) uint64 {
	var idx uint64
	x := r.Uint64()
	rr, w := uint64(math.MaxUint64), x
	e := s.root
	for v := s.m.Qubits() - 1; v >= 0; v-- {
		n := e.N
		p0 := n.E[0].W.Abs2()
		if s.down != nil {
			d0 := n.E[0].W.Abs2() * s.downOf(n.E[0].N)
			d1 := n.E[1].W.Abs2() * s.downOf(n.E[1].N)
			p0 = d0 / (d0 + d1)
		}
		var b uint64
		b, x, rr, w = step(threshold(p0), x, rr, w)
		e = n.E[b]
		idx |= b << uint(v)
		if e.IsZero() {
			// Floating-point slack put us on a zero edge; take the other.
			s.renorms++
			idx ^= 1 << uint(v)
			e = n.E[b^1]
		}
	}
	return idx
}
