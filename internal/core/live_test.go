package core

import (
	"weaksim/internal/dd"
	"weaksim/internal/rng"
)

// liveSampler is the pointer walk over the live diagram that FrozenSampler
// replaced, kept as an independent test oracle: in generic mode it computes
// its own downstream masses by recursion over live nodes, never reading a
// dd.Snapshot.
type liveSampler struct {
	m       *dd.Manager
	root    dd.VEdge
	down    map[*dd.VNode]float64 // nil on the L2 fast path
	renorms uint64
}

func newLiveSampler(m *dd.Manager, root dd.VEdge, generic bool) *liveSampler {
	s := &liveSampler{m: m, root: root}
	if generic || m.Normalization() == dd.NormLeft {
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

func (s *liveSampler) Sample(r *rng.RNG) uint64 {
	var idx uint64
	e := s.root
	for v := s.m.Qubits() - 1; v >= 0; v-- {
		n := e.N
		p0 := n.E[0].W.Abs2()
		if s.down != nil {
			d0 := n.E[0].W.Abs2() * s.downOf(n.E[0].N)
			d1 := n.E[1].W.Abs2() * s.downOf(n.E[1].N)
			p0 = d0 / (d0 + d1)
		}
		bit := uint64(1) << uint(v)
		if r.Float64() < p0 {
			e = n.E[0]
		} else {
			e = n.E[1]
			idx |= bit
		}
		if e.IsZero() {
			// Floating-point slack put us on a zero edge; take the other.
			s.renorms++
			idx ^= bit
			e = n.E[(idx>>uint(v))&1]
		}
	}
	return idx
}
