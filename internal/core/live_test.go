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

// p0 is node n's 0-branch probability, computed from the live weights.
func (s *liveSampler) p0(n *dd.VNode) float64 {
	if s.down == nil {
		return n.E[0].W.Abs2()
	}
	d0 := n.E[0].W.Abs2() * s.downOf(n.E[0].N)
	d1 := n.E[1].W.Abs2() * s.downOf(n.E[1].N)
	return d0 / (d0 + d1)
}

func (s *liveSampler) Qubits() int { return s.m.Qubits() }

// Sample decodes one draw from the root.
func (s *liveSampler) Sample(r *rng.RNG) uint64 {
	return s.descend(r.Uint64(), s.root.N, s.m.Qubits())
}

// step decodes one level on threshold t from the shot state (x, r, w) and
// returns the level's bit and the next state: a refill when r is below
// refillBelow, then the split. The oracle's walk and the hand walks of the
// decoder tests go through it; the sampler's walks write the same two calls
// out.
func step(t, x, r, w uint64) (bit, nx, nr, nw uint64) {
	if r < refillBelow {
		x, r, w = refill(x, r, w)
	}
	bit, x, r = split(t, x, r)
	return bit, x, r, w
}

// descend decodes draw x through the levels below node n one level at a
// time through step, on thresholds it converts from its own P0 with the
// same threshold rule, and returns the bits of those levels. It walks one
// shot at a time on purpose: the sampler's paired walk is checked against
// it, not against a second paired walk.
func (s *liveSampler) descend(x uint64, n *dd.VNode, levels int) uint64 {
	var idx uint64
	rr, w := uint64(math.MaxUint64), x
	for v := levels - 1; v >= 0; v-- {
		var b uint64
		b, x, rr, w = step(threshold(s.p0(n)), x, rr, w)
		e := n.E[b]
		idx |= b << uint(v)
		if e.IsZero() {
			// Floating-point slack put us on a zero edge; take the other.
			s.renorms++
			idx ^= 1 << uint(v)
			e = n.E[b^1]
		}
		n = e.N
	}
	return idx
}

// splitCounts is the reference splitter: it tallies shots samples by
// splitting them down the live diagram from r, written plainly. A node
// reached by more than splitMax shots sends Binomial(shots, P0) of them to
// its 0-kid (P0 rounded to the walk's 0.64 threshold) and the rest to its
// 1-kid, the 0-kid's subtree first; shots sent to a zero edge move to the
// other kid and count as renorms. A node reached by splitMax shots or
// fewer decodes each of them from a draw of its own, and the terminal
// tallies what reaches it.
func (s *liveSampler) splitCounts(r *rng.RNG, shots int) map[uint64]int {
	counts := map[uint64]int{}
	var visit func(n *dd.VNode, levels int, prefix uint64, shots int)
	visit = func(n *dd.VNode, levels int, prefix uint64, shots int) {
		switch {
		case shots == 0:
			return
		case levels == 0:
			counts[prefix] += shots
			return
		case shots <= splitMax:
			for range shots {
				counts[prefix<<uint(levels)|s.descend(r.Uint64(), n, levels)]++
			}
			return
		}
		zeros := r.Binomial(shots, float64(threshold(s.p0(n)))/(1<<64))
		ones := shots - zeros
		if n.E[0].IsZero() {
			s.renorms += uint64(zeros)
			zeros, ones = 0, shots
		}
		if n.E[1].IsZero() {
			s.renorms += uint64(ones)
			zeros, ones = shots, 0
		}
		visit(n.E[0].N, levels-1, prefix<<1, zeros)
		visit(n.E[1].N, levels-1, prefix<<1|1, ones)
	}
	visit(s.root.N, s.m.Qubits(), 0, shots)
	return counts
}
