package dd

import (
	"fmt"

	"weaksim/internal/cnum"
)

// GateMatrix is a dense 2x2 single-qubit operator, indexed [row][column].
type GateMatrix [2][2]cnum.Complex

// GateDD builds the matrix DD of the n-qubit operator that applies the
// single-qubit gate u to the target qubit, conditioned on the given
// controls, and acts as the identity elsewhere. This is the standard
// bottom-up QMDD construction: quadrant blocks are threaded upward level by
// level, expanding identity levels, control levels, and the target level as
// they are encountered.
func (m *Manager) GateDD(u GateMatrix, target int, controls ...Control) MEdge {
	if target < 0 || target >= m.nqubits {
		panic(fmt.Sprintf("dd: gate target %d out of range", target))
	}
	ctl := make([]int, m.nqubits) // 0 = none, 1 = positive, 2 = negative
	for _, c := range controls {
		if c.Qubit < 0 || c.Qubit >= m.nqubits {
			panic(fmt.Sprintf("dd: control qubit %d out of range", c.Qubit))
		}
		if c.Qubit == target {
			panic("dd: control qubit equals target")
		}
		if ctl[c.Qubit] != 0 {
			panic(fmt.Sprintf("dd: duplicate control on qubit %d", c.Qubit))
		}
		if c.Negative {
			ctl[c.Qubit] = 2
		} else {
			ctl[c.Qubit] = 1
		}
	}

	// em[2*i+j] is the operator block for target-row i, target-column j,
	// restricted to the levels processed so far (with all processed
	// controls active).
	var em [4]MEdge
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			em[2*i+j] = MEdge{W: m.ctab.Lookup(u[i][j])}
			if em[2*i+j].W.IsZero() {
				em[2*i+j] = MEdge{}
			}
		}
	}

	// Levels below the target.
	for z := 0; z < target; z++ {
		for k := 0; k < 4; k++ {
			diag := k == 0 || k == 3
			switch ctl[z] {
			case 0:
				if !em[k].IsZero() {
					em[k] = m.makeMNode(z, [4]MEdge{em[k], {}, {}, em[k]})
				}
			case 1: // positive control: active when bit is 1
				inactive := MEdge{}
				if diag {
					inactive = m.identityDD(z)
				}
				em[k] = m.makeMNode(z, [4]MEdge{inactive, {}, {}, em[k]})
			case 2: // negative control: active when bit is 0
				inactive := MEdge{}
				if diag {
					inactive = m.identityDD(z)
				}
				em[k] = m.makeMNode(z, [4]MEdge{em[k], {}, {}, inactive})
			}
		}
	}

	// The target level itself.
	e := m.makeMNode(target, em)

	// Levels above the target.
	for z := target + 1; z < m.nqubits; z++ {
		switch ctl[z] {
		case 0:
			e = m.makeMNode(z, [4]MEdge{e, {}, {}, e})
		case 1:
			e = m.makeMNode(z, [4]MEdge{m.identityDD(z), {}, {}, e})
		case 2:
			e = m.makeMNode(z, [4]MEdge{e, {}, {}, m.identityDD(z)})
		}
	}
	return e
}

// identityDD returns the identity operator on levels 0..k-1 (a 2^k x 2^k
// identity). identityDD(0) is the terminal scalar 1.
func (m *Manager) identityDD(k int) MEdge {
	e := MEdge{W: cnum.One}
	for z := 0; z < k; z++ {
		e = m.makeMNode(z, [4]MEdge{e, {}, {}, e})
	}
	return e
}

// maxPermWidth bounds the direct permutation-DD construction, whose work is
// quadratic in the permutation size.
const maxPermWidth = 13

// PermutationDD builds the matrix DD of a classical reversible function
// acting on the lowest `width` qubits: basis state |j⟩ of that register maps
// to |perm[j]⟩. Higher qubits act as identity unless listed as controls
// (controls must lie at or above `width`). Shor's modular-exponentiation
// steps are controlled permutations of exactly this shape.
func (m *Manager) PermutationDD(perm []uint64, width int, controls ...Control) (MEdge, error) {
	if width < 1 || width > m.nqubits {
		return MEdge{}, fmt.Errorf("dd: permutation width %d out of range", width)
	}
	if width > maxPermWidth {
		return MEdge{}, fmt.Errorf("dd: permutation width %d exceeds limit %d", width, maxPermWidth)
	}
	size := 1 << uint(width)
	if len(perm) != size {
		return MEdge{}, fmt.Errorf("dd: permutation has %d entries, want %d", len(perm), size)
	}
	seen := make([]bool, size)
	for _, r := range perm {
		if r >= uint64(size) {
			return MEdge{}, fmt.Errorf("dd: permutation image %d out of range", r)
		}
		if seen[r] {
			return MEdge{}, fmt.Errorf("dd: permutation is not a bijection (image %d repeated)", r)
		}
		seen[r] = true
	}

	part := make([]int64, size)
	for j, r := range perm {
		part[j] = int64(r)
	}
	e := m.permDD(part, width-1)

	ctl := make(map[int]bool, len(controls)) // qubit -> negative?
	for _, c := range controls {
		if c.Qubit < width || c.Qubit >= m.nqubits {
			return MEdge{}, fmt.Errorf("dd: permutation control %d must lie in [%d,%d)", c.Qubit, width, m.nqubits)
		}
		if _, dup := ctl[c.Qubit]; dup {
			return MEdge{}, fmt.Errorf("dd: duplicate control on qubit %d", c.Qubit)
		}
		ctl[c.Qubit] = c.Negative
	}
	for z := width; z < m.nqubits; z++ {
		neg, isCtl := ctl[z]
		switch {
		case !isCtl:
			e = m.makeMNode(z, [4]MEdge{e, {}, {}, e})
		case neg:
			e = m.makeMNode(z, [4]MEdge{e, {}, {}, m.identityDD(z)})
		default:
			e = m.makeMNode(z, [4]MEdge{m.identityDD(z), {}, {}, e})
		}
	}
	return e, nil
}

// permDD builds the DD of a partial permutation block. part[j] is the row
// index of the single 1-entry in column j, or -1 if the column is zero in
// this block.
func (m *Manager) permDD(part []int64, v int) MEdge {
	if v < 0 {
		if part[0] == 0 {
			return MEdge{W: cnum.One}
		}
		return MEdge{}
	}
	half := len(part) / 2
	var e [4]MEdge
	sub := make([]int64, half)
	for rbit := int64(0); rbit < 2; rbit++ {
		for cbit := 0; cbit < 2; cbit++ {
			cols := part[cbit*half : (cbit+1)*half]
			empty := true
			for j, r := range cols {
				if r >= 0 && (r>>uint(v))&1 == rbit {
					sub[j] = r &^ (1 << uint(v))
					empty = false
				} else {
					sub[j] = -1
				}
			}
			if empty {
				e[2*int(rbit)+cbit] = MEdge{}
				continue
			}
			e[2*int(rbit)+cbit] = m.permDD(sub, v-1)
		}
	}
	return m.makeMNode(v, e)
}

// FromMatrix builds a full-width matrix DD from an explicit 2^n x 2^n
// matrix. Intended for tests and small operators.
func (m *Manager) FromMatrix(mat [][]cnum.Complex) (MEdge, error) {
	size := 1 << uint(m.nqubits)
	if m.nqubits > MaxDenseQubits/2 {
		return MEdge{}, fmt.Errorf("dd: matrix too large to build densely")
	}
	if len(mat) != size {
		return MEdge{}, fmt.Errorf("dd: matrix has %d rows, want %d", len(mat), size)
	}
	for _, row := range mat {
		if len(row) != size {
			return MEdge{}, fmt.Errorf("dd: matrix row has %d columns, want %d", len(row), size)
		}
	}
	return m.fromMatrix(mat, 0, 0, size, m.nqubits-1), nil
}

func (m *Manager) fromMatrix(mat [][]cnum.Complex, r0, c0, size int, v int) MEdge {
	if v < 0 {
		w := m.ctab.Lookup(mat[r0][c0])
		if w.IsZero() {
			return MEdge{}
		}
		return MEdge{W: w}
	}
	half := size / 2
	var e [4]MEdge
	for rbit := 0; rbit < 2; rbit++ {
		for cbit := 0; cbit < 2; cbit++ {
			e[2*rbit+cbit] = m.fromMatrix(mat, r0+rbit*half, c0+cbit*half, half, v-1)
		}
	}
	return m.makeMNode(v, e)
}

// ToMatrix expands a matrix DD into an explicit dense matrix. Intended for
// tests and small operators.
func (m *Manager) ToMatrix(e MEdge) ([][]cnum.Complex, error) {
	if m.nqubits > MaxDenseQubits/2 {
		return nil, fmt.Errorf("dd: matrix too large to expand densely")
	}
	size := 1 << uint(m.nqubits)
	mat := make([][]cnum.Complex, size)
	for i := range mat {
		mat[i] = make([]cnum.Complex, size)
	}
	m.fillMatrix(e, m.nqubits-1, cnum.One, 0, 0, size, mat)
	return mat, nil
}

func (m *Manager) fillMatrix(e MEdge, v int, acc cnum.Complex, r0, c0, size int, out [][]cnum.Complex) {
	if e.IsZero() {
		return
	}
	acc = acc.Mul(e.W)
	if v < 0 {
		out[r0][c0] = acc
		return
	}
	half := size / 2
	for rbit := 0; rbit < 2; rbit++ {
		for cbit := 0; cbit < 2; cbit++ {
			m.fillMatrix(e.N.E[2*rbit+cbit], v-1, acc, r0+rbit*half, c0+cbit*half, half, out)
		}
	}
}

// MNodeCount returns the number of distinct matrix nodes reachable from e,
// excluding the terminal.
func (m *Manager) MNodeCount(e MEdge) int {
	seen := make(map[*MNode]struct{})
	m.countMNodes(e.N, seen)
	return len(seen)
}

func (m *Manager) countMNodes(n *MNode, seen map[*MNode]struct{}) {
	if n == nil {
		return
	}
	if _, ok := seen[n]; ok {
		return
	}
	seen[n] = struct{}{}
	for i := 0; i < 4; i++ {
		m.countMNodes(n.E[i].N, seen)
	}
}
