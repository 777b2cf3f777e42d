package dd

import (
	"fmt"

	"weaksim/internal/cnum"
)

// MaxDenseQubits bounds conversions between decision diagrams and explicit
// arrays. 2^26 complex entries occupy 1 GiB; anything larger must stay in
// DD form (that is the point of the paper).
const MaxDenseQubits = 26

// ZeroState returns the DD of the all-zeros basis state |0...0⟩.
func (m *Manager) ZeroState() VEdge { return m.BasisState(0) }

// BasisState returns the DD of the computational basis state |idx⟩, where
// bit k of idx is the value of qubit k.
func (m *Manager) BasisState(idx uint64) VEdge {
	if m.nqubits < 64 && idx >= uint64(1)<<m.nqubits {
		panic(fmt.Sprintf("dd: basis state %d out of range for %d qubits", idx, m.nqubits))
	}
	e := VEdge{W: cnum.One, N: nil}
	for v := 0; v < m.nqubits; v++ {
		if idx>>uint(v)&1 == 0 {
			e = m.makeVNode(v, e, VEdge{})
		} else {
			e = m.makeVNode(v, VEdge{}, e)
		}
	}
	return e
}

// FromVector builds the DD of an explicit amplitude vector. The vector
// length must be exactly 2^n for the Manager's qubit count n.
func (m *Manager) FromVector(vec []cnum.Complex) (VEdge, error) {
	if len(vec) != 1<<uint(m.nqubits) {
		return VEdge{}, fmt.Errorf("dd: vector length %d does not match %d qubits", len(vec), m.nqubits)
	}
	return m.fromVector(vec, m.nqubits-1), nil
}

func (m *Manager) fromVector(vec []cnum.Complex, v int) VEdge {
	if v < 0 {
		return VEdge{W: m.ctab.Lookup(vec[0])}
	}
	half := len(vec) / 2
	e0 := m.fromVector(vec[:half], v-1)
	e1 := m.fromVector(vec[half:], v-1)
	return m.makeVNode(v, e0, e1)
}

// ToVector expands a DD into an explicit amplitude vector. It refuses to
// materialize vectors beyond MaxDenseQubits.
func (m *Manager) ToVector(e VEdge) ([]cnum.Complex, error) {
	if m.nqubits > MaxDenseQubits {
		return nil, fmt.Errorf("dd: refusing to expand %d qubits to a dense vector (max %d)", m.nqubits, MaxDenseQubits)
	}
	vec := make([]cnum.Complex, 1<<uint(m.nqubits))
	m.fillVector(e, m.nqubits-1, cnum.One, vec)
	return vec, nil
}

func (m *Manager) fillVector(e VEdge, v int, acc cnum.Complex, out []cnum.Complex) {
	if e.IsZero() {
		return
	}
	acc = acc.Mul(e.W)
	if v < 0 {
		out[0] = acc
		return
	}
	half := len(out) / 2
	m.fillVector(e.N.E[0], v-1, acc, out[:half])
	m.fillVector(e.N.E[1], v-1, acc, out[half:])
}

// Amplitude returns the amplitude of basis state idx: the product of the
// edge weights along the path selected by the bits of idx (paper
// Example 9).
func (m *Manager) Amplitude(e VEdge, idx uint64) cnum.Complex {
	acc := cnum.One
	for v := m.nqubits - 1; ; v-- {
		if e.IsZero() {
			return cnum.Zero
		}
		acc = acc.Mul(e.W)
		if v < 0 {
			return acc
		}
		e = e.N.E[idx>>uint(v)&1]
	}
}

// NodeCount returns the number of distinct nodes reachable from e,
// excluding the terminal. This is the "size" column of the paper's Table I.
func (m *Manager) NodeCount(e VEdge) int {
	seen := make(map[*VNode]struct{})
	m.countNodes(e.N, seen)
	return len(seen)
}

func (m *Manager) countNodes(n *VNode, seen map[*VNode]struct{}) {
	if n == nil {
		return
	}
	if _, ok := seen[n]; ok {
		return
	}
	seen[n] = struct{}{}
	m.countNodes(n.E[0].N, seen)
	m.countNodes(n.E[1].N, seen)
}

// Norm2 returns the squared Euclidean norm of the vector represented by e.
// A valid quantum state has Norm2 == 1 up to the interning tolerance.
func (m *Manager) Norm2(e VEdge) float64 { return e.norm2() }

// InnerProduct returns ⟨a|b⟩, the conjugate-linear inner product of the two
// state DDs. Both edges must be full-height states of this Manager.
func (m *Manager) InnerProduct(a, b VEdge) cnum.Complex {
	memo := make(map[[2]*VNode]cnum.Complex)
	return m.innerRec(a, b, m.nqubits-1, memo)
}

func (m *Manager) innerRec(a, b VEdge, v int, memo map[[2]*VNode]cnum.Complex) cnum.Complex {
	if a.IsZero() || b.IsZero() {
		return cnum.Zero
	}
	w := a.W.Conj().Mul(b.W)
	if v < 0 {
		return w
	}
	key := [2]*VNode{a.N, b.N}
	if r, ok := memo[key]; ok {
		return r.Mul(w)
	}
	var sum cnum.Complex
	for i := 0; i < 2; i++ {
		sum = sum.Add(m.innerRec(a.N.E[i], b.N.E[i], v-1, memo))
	}
	memo[key] = sum
	return sum.Mul(w)
}

// Fidelity returns |⟨a|b⟩|².
func (m *Manager) Fidelity(a, b VEdge) float64 {
	return m.InnerProduct(a, b).Abs2()
}
