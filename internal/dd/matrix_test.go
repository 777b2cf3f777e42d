package dd

import (
	"math"
	"math/rand/v2"
	"testing"

	"weaksim/internal/cnum"
)

// Dense linear-algebra helpers used as the reference implementation.

func denseIdentity(size int) [][]cnum.Complex {
	mat := make([][]cnum.Complex, size)
	for i := range mat {
		mat[i] = make([]cnum.Complex, size)
		mat[i][i] = cnum.One
	}
	return mat
}

// denseGate builds the full matrix of a controlled single-qubit gate by
// direct index arithmetic.
func denseGate(n int, u [2][2]cnum.Complex, target int, controls ...Control) [][]cnum.Complex {
	size := 1 << uint(n)
	mat := make([][]cnum.Complex, size)
	for r := range mat {
		mat[r] = make([]cnum.Complex, size)
	}
	var mask, want uint64
	for _, c := range controls {
		bit := uint64(1) << uint(c.Qubit)
		mask |= bit
		if !c.Negative {
			want |= bit
		}
	}
	tbit := uint64(1) << uint(target)
	for col := uint64(0); col < uint64(size); col++ {
		if col&mask != want {
			mat[col][col] = cnum.One
			continue
		}
		j := (col >> uint(target)) & 1
		for i := uint64(0); i < 2; i++ {
			row := (col &^ tbit) | (i << uint(target))
			mat[row][col] = u[i][j]
		}
	}
	return mat
}

func denseMatVec(mat [][]cnum.Complex, vec []cnum.Complex) []cnum.Complex {
	out := make([]cnum.Complex, len(vec))
	for r := range mat {
		var sum cnum.Complex
		for c := range vec {
			if !mat[r][c].IsZero() && !vec[c].IsZero() {
				sum = sum.Add(mat[r][c].Mul(vec[c]))
			}
		}
		out[r] = sum
	}
	return out
}

func matApproxEq(a, b [][]cnum.Complex, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if !a[i][j].ApproxEq(b[i][j], tol) {
				return false
			}
		}
	}
	return true
}

var hMatrix = [2][2]cnum.Complex{
	{cnum.SqrtHalf, cnum.SqrtHalf},
	{cnum.SqrtHalf, cnum.SqrtHalf.Neg()},
}

var xMatrix = [2][2]cnum.Complex{
	{cnum.Zero, cnum.One},
	{cnum.One, cnum.Zero},
}

func TestGateDDSingleQubit(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for target := 0; target < n; target++ {
			m := New(n)
			e := m.GateDD(GateMatrix(hMatrix), target)
			got, err := m.ToMatrix(e)
			if err != nil {
				t.Fatal(err)
			}
			want := denseGate(n, hMatrix, target)
			if !matApproxEq(got, want, 1e-9) {
				t.Errorf("n=%d target=%d: H matrix DD mismatch", n, target)
			}
		}
	}
}

func TestGateDDControlsAboveAndBelow(t *testing.T) {
	cases := []struct {
		n        int
		target   int
		controls []Control
	}{
		{2, 0, []Control{Pos(1)}}, // control above target
		{2, 1, []Control{Pos(0)}}, // control below target
		{3, 1, []Control{Pos(2)}}, // CNOT in the middle
		{3, 0, []Control{Pos(1), Pos(2)}},
		{3, 2, []Control{Pos(0), Pos(1)}}, // Toffoli, controls below
		{3, 1, []Control{Pos(0), Pos(2)}}, // controls straddling target
		{3, 1, []Control{Neg(0)}},         // negative control below
		{3, 1, []Control{Neg(2)}},         // negative control above
		{4, 2, []Control{Neg(0), Pos(3)}},
		{4, 1, []Control{Pos(0), Neg(2), Pos(3)}},
	}
	for _, tc := range cases {
		m := New(tc.n)
		e := m.GateDD(GateMatrix(xMatrix), tc.target, tc.controls...)
		got, err := m.ToMatrix(e)
		if err != nil {
			t.Fatal(err)
		}
		want := denseGate(tc.n, xMatrix, tc.target, tc.controls...)
		if !matApproxEq(got, want, 1e-9) {
			t.Errorf("n=%d target=%d controls=%v: controlled-X mismatch", tc.n, tc.target, tc.controls)
		}
	}
}

func TestIdentityDD(t *testing.T) {
	m := New(3)
	got, err := m.ToMatrix(m.identityDD(m.nqubits))
	if err != nil {
		t.Fatal(err)
	}
	if !matApproxEq(got, denseIdentity(8), 1e-9) {
		t.Error("identityDD mismatch")
	}
	// Identity on n qubits has exactly n matrix nodes.
	if c := m.MNodeCount(m.identityDD(m.nqubits)); c != 3 {
		t.Errorf("identity MNodeCount = %d, want 3", c)
	}
}

func TestPermutationDD(t *testing.T) {
	// Full-width permutation: a cyclic increment mod 8.
	m := New(3)
	perm := []uint64{1, 2, 3, 4, 5, 6, 7, 0}
	e, err := m.PermutationDD(perm, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ToMatrix(e)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]cnum.Complex, 8)
	for i := range want {
		want[i] = make([]cnum.Complex, 8)
	}
	for col, row := range perm {
		want[row][col] = cnum.One
	}
	if !matApproxEq(got, want, 1e-9) {
		t.Error("permutation matrix mismatch")
	}
}

func TestPermutationDDControlled(t *testing.T) {
	// Permutation on the low 2 qubits controlled by qubit 2: swap |1⟩,|2⟩.
	m := New(3)
	perm := []uint64{0, 2, 1, 3}
	e, err := m.PermutationDD(perm, 2, Pos(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ToMatrix(e)
	if err != nil {
		t.Fatal(err)
	}
	want := denseIdentity(8)
	// With control bit set (rows/cols 4..7), apply the permutation on the
	// low bits.
	for col := 4; col < 8; col++ {
		for r := range want {
			want[r][col] = cnum.Zero
		}
		want[4+int(perm[col-4])][col] = cnum.One
	}
	if !matApproxEq(got, want, 1e-9) {
		t.Error("controlled permutation mismatch")
	}
}

func TestPermutationDDValidation(t *testing.T) {
	m := New(3)
	if _, err := m.PermutationDD([]uint64{0, 0, 1, 2}, 2); err == nil {
		t.Error("expected error for non-bijective permutation")
	}
	if _, err := m.PermutationDD([]uint64{0, 9, 1, 2}, 2); err == nil {
		t.Error("expected error for out-of-range image")
	}
	if _, err := m.PermutationDD([]uint64{0, 1}, 1, Pos(0)); err == nil {
		t.Error("expected error for control inside permutation register")
	}
	if _, err := m.PermutationDD([]uint64{0, 1, 2}, 2); err == nil {
		t.Error("expected error for wrong-length permutation")
	}
}

func TestFromMatrixRoundtrip(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	m := New(3)
	size := 8
	mat := make([][]cnum.Complex, size)
	for i := range mat {
		mat[i] = make([]cnum.Complex, size)
		for j := range mat[i] {
			mat[i][j] = cnum.New(r.NormFloat64(), r.NormFloat64())
		}
	}
	e, err := m.FromMatrix(mat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ToMatrix(e)
	if err != nil {
		t.Fatal(err)
	}
	if !matApproxEq(got, mat, 1e-9) {
		t.Error("FromMatrix/ToMatrix roundtrip mismatch")
	}
}

func TestMulMatchesDense(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 32))
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		m := New(3, WithNormalization(norm))
		vec := randomState(r, 3)
		st, _ := m.FromVector(vec)

		// A layered random circuit in dense and DD form simultaneously.
		gates := []struct {
			u        [2][2]cnum.Complex
			target   int
			controls []Control
		}{
			{hMatrix, 2, nil},
			{xMatrix, 0, []Control{Pos(2)}},
			{hMatrix, 1, nil},
			{xMatrix, 2, []Control{Pos(0), Neg(1)}},
		}
		for gi, g := range gates {
			op := m.GateDD(GateMatrix(g.u), g.target, g.controls...)
			st = m.Mul(op, st)
			vec = denseMatVec(denseGate(3, g.u, g.target, g.controls...), vec)
			got, _ := m.ToVector(st)
			if !vecApproxEq(got, vec, 1e-9) {
				t.Fatalf("norm=%v: state mismatch after gate %d", norm, gi)
			}
		}
		if n2 := m.Norm2(st); !approx(n2, 1, 1e-9) {
			t.Errorf("norm=%v: Norm2 = %v after unitary circuit", norm, n2)
		}
	}
}

func TestMulPermutation(t *testing.T) {
	m := New(3)
	r := rand.New(rand.NewPCG(41, 42))
	vec := randomState(r, 3)
	st, _ := m.FromVector(vec)
	perm := []uint64{3, 0, 2, 1}
	e, err := m.PermutationDD(perm, 2, Pos(2))
	if err != nil {
		t.Fatal(err)
	}
	st = m.Mul(e, st)
	got, _ := m.ToVector(st)
	want := make([]cnum.Complex, len(vec))
	for i := uint64(0); i < 8; i++ {
		dst := i
		if i&4 != 0 {
			dst = (i &^ 3) | perm[i&3]
		}
		want[dst] = vec[i]
	}
	if !vecApproxEq(got, want, 1e-9) {
		t.Error("permutation Mul mismatch")
	}
}

func TestGCKeepsLiveState(t *testing.T) {
	m := New(4, WithGCThreshold(1))
	r := rand.New(rand.NewPCG(51, 52))
	vec := randomState(r, 4)
	st, _ := m.FromVector(vec)
	// Create garbage.
	for i := 0; i < 20; i++ {
		garbage := randomState(r, 4)
		m.FromVector(garbage)
	}
	if !m.ShouldGC() {
		t.Fatal("expected ShouldGC after building garbage")
	}
	before := m.TableStats().VNodes
	removedV, _ := m.GC([]VEdge{st}, nil)
	if removedV == 0 {
		t.Error("GC removed nothing")
	}
	after := m.TableStats().VNodes
	if after >= before {
		t.Errorf("unique table did not shrink: %d -> %d", before, after)
	}
	// State survives intact.
	got, _ := m.ToVector(st)
	if !vecApproxEq(got, vec, 1e-9) {
		t.Error("live state corrupted by GC")
	}
	// Hash-consing still works for live structure.
	st2, _ := m.FromVector(vec)
	if st2.N != st.N {
		t.Error("post-GC rebuild of live state created a duplicate node")
	}
}

func TestGCKeepsMatrixRoots(t *testing.T) {
	m := New(3)
	op := m.GateDD(GateMatrix(hMatrix), 1, Pos(2))
	want, _ := m.ToMatrix(op)
	for i := 0; i < 5; i++ {
		m.GateDD(GateMatrix(xMatrix), i%3) // garbage
	}
	m.GC(nil, []MEdge{op})
	got, _ := m.ToMatrix(op)
	if !matApproxEq(got, want, 1e-9) {
		t.Error("matrix root corrupted by GC")
	}
}

func TestUnitaryPreservesNorm(t *testing.T) {
	// Long alternating circuit keeps Norm2 == 1 under all schemes.
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		m := New(5, WithNormalization(norm))
		st := m.ZeroState()
		for i := 0; i < 40; i++ {
			tq := i % 5
			var op MEdge
			if i%3 == 0 {
				op = m.GateDD(GateMatrix(hMatrix), tq)
			} else {
				op = m.GateDD(GateMatrix(xMatrix), tq, Pos((tq+1)%5))
			}
			st = m.Mul(op, st)
		}
		if n2 := m.Norm2(st); math.Abs(n2-1) > 1e-9 {
			t.Errorf("norm=%v: Norm2 drifted to %v", norm, n2)
		}
	}
}

func TestParseNorm(t *testing.T) {
	for _, n := range []Norm{NormLeft, NormL2Phase} {
		got, err := ParseNorm(n.String())
		if err != nil || got != n {
			t.Errorf("ParseNorm(%q) = %v, %v", n.String(), got, err)
		}
	}
	if _, err := ParseNorm("bogus"); err == nil {
		t.Error("expected error for unknown scheme")
	}
}
