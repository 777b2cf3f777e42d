package dd

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"weaksim/internal/cnum"
)

// figure4Vector is the running-example state of the paper (Figs. 2-4):
// [0, -0.612i, 0, -0.612i, 0.354, 0, 0, 0.354] with the exact values
// -i*sqrt(3/8) and sqrt(1/8).
func figure4Vector() []cnum.Complex {
	a := cnum.New(0, -math.Sqrt(3.0/8.0))
	b := cnum.New(math.Sqrt(1.0/8.0), 0)
	return []cnum.Complex{cnum.Zero, a, cnum.Zero, a, b, cnum.Zero, cnum.Zero, b}
}

func randomState(r *rand.Rand, n int) []cnum.Complex {
	vec := make([]cnum.Complex, 1<<uint(n))
	var norm float64
	for i := range vec {
		vec[i] = cnum.New(r.NormFloat64(), r.NormFloat64())
		norm += vec[i].Abs2()
	}
	s := 1 / math.Sqrt(norm)
	for i := range vec {
		vec[i] = vec[i].Scale(s)
	}
	return vec
}

func vecApproxEq(a, b []cnum.Complex, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].ApproxEq(b[i], tol) {
			return false
		}
	}
	return true
}

func TestBasisState(t *testing.T) {
	m := New(3)
	for idx := uint64(0); idx < 8; idx++ {
		e := m.BasisState(idx)
		for j := uint64(0); j < 8; j++ {
			amp := m.Amplitude(e, j)
			want := cnum.Zero
			if j == idx {
				want = cnum.One
			}
			if !amp.ApproxEq(want, 1e-12) {
				t.Errorf("BasisState(%d): amplitude(%d) = %v, want %v", idx, j, amp, want)
			}
		}
		if got := m.NodeCount(e); got != 3 {
			t.Errorf("BasisState(%d): NodeCount = %d, want 3", idx, got)
		}
		if n2 := m.Norm2(e); !approx(n2, 1, 1e-9) {
			t.Errorf("BasisState(%d): Norm2 = %v", idx, n2)
		}
	}
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBasisStatePanicsOutOfRange(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range basis state")
		}
	}()
	m.BasisState(4)
}

func TestFromToVectorRoundtrip(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		r := rand.New(rand.NewPCG(7, 11))
		for n := 1; n <= 6; n++ {
			m := New(n, WithNormalization(norm))
			vec := randomState(r, n)
			e, err := m.FromVector(vec)
			if err != nil {
				t.Fatalf("FromVector: %v", err)
			}
			back, err := m.ToVector(e)
			if err != nil {
				t.Fatalf("ToVector: %v", err)
			}
			if !vecApproxEq(vec, back, 1e-9) {
				t.Errorf("norm=%v n=%d: roundtrip mismatch", norm, n)
			}
			for i := range vec {
				if got := m.Amplitude(e, uint64(i)); !got.ApproxEq(vec[i], 1e-9) {
					t.Errorf("norm=%v n=%d: Amplitude(%d) = %v, want %v", norm, n, i, got, vec[i])
				}
			}
		}
	}
}

func TestFromVectorLengthMismatch(t *testing.T) {
	m := New(3)
	if _, err := m.FromVector(make([]cnum.Complex, 4)); err == nil {
		t.Error("expected error for wrong-length vector")
	}
}

func TestHashConsing(t *testing.T) {
	m := New(4)
	r := rand.New(rand.NewPCG(1, 2))
	vec := randomState(r, 4)
	e1, _ := m.FromVector(vec)
	e2, _ := m.FromVector(vec)
	if e1.N != e2.N {
		t.Error("identical vectors built distinct root nodes")
	}
	if !e1.W.ApproxEq(e2.W, 1e-12) {
		t.Errorf("identical vectors built distinct weights: %v vs %v", e1.W, e2.W)
	}
}

func TestProductStateNodeCount(t *testing.T) {
	// A uniform superposition (H on every qubit) is a product state: its DD
	// must have exactly n nodes — the QFT rows of Table I rely on this.
	for n := 2; n <= 10; n++ {
		m := New(n)
		vec := make([]cnum.Complex, 1<<uint(n))
		amp := cnum.New(1/math.Sqrt(float64(int(1)<<uint(n))), 0)
		for i := range vec {
			vec[i] = amp
		}
		e, _ := m.FromVector(vec)
		if got := m.NodeCount(e); got != n {
			t.Errorf("n=%d: NodeCount = %d, want %d", n, got, n)
		}
	}
}

func TestL2NormalizationWeightInvariant(t *testing.T) {
	// Under NormL2Phase every node's outgoing weights satisfy
	// |w0|² + |w1|² == 1 — the paper's Section IV-C invariant.
	m := New(3)
	e, _ := m.FromVector(figure4Vector())
	seen := map[*VNode]bool{}
	var walk func(n *VNode)
	walk = func(n *VNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		sum := n.E[0].W.Abs2() + n.E[1].W.Abs2()
		if !approx(sum, 1, 1e-9) {
			t.Errorf("node at level %d has weight norm %v", n.V, sum)
		}
		walk(n.E[0].N)
		walk(n.E[1].N)
	}
	walk(e.N)
	if !approx(e.W.Abs2(), 1, 1e-9) {
		t.Errorf("root weight magnitude %v, want 1", e.W.Abs())
	}
}

func TestFigure4dWeights(t *testing.T) {
	// Under NormL2Phase the running example's root node carries the Fig.
	// 4d weight magnitudes sqrt(3/4) and sqrt(1/4), and the q1 nodes carry
	// 1/sqrt(2) on both edges. Fig. 4d leaves the phases free; NormL2Phase
	// pulls the leading one out, so only magnitudes are compared.
	m := New(3)
	e, _ := m.FromVector(figure4Vector())
	root := e.N
	if root.V != 2 {
		t.Fatalf("root level = %d, want 2", root.V)
	}
	if got := root.E[0].W.Abs(); !approx(got, math.Sqrt(3.0/4.0), 1e-9) {
		t.Errorf("|root.E0| = %v, want sqrt(3/4)", got)
	}
	if got := root.E[1].W.Abs(); !approx(got, math.Sqrt(1.0/4.0), 1e-9) {
		t.Errorf("|root.E1| = %v, want sqrt(1/4)", got)
	}
	for i := 0; i < 2; i++ {
		q1 := root.E[i].N
		for j := 0; j < 2; j++ {
			if got := q1.E[j].W.Abs(); !approx(got, math.Sqrt2/2, 1e-9) {
				t.Errorf("|q1[%d].E%d| = %v, want 1/sqrt(2)", i, j, got)
			}
		}
	}
}

func TestFigure4bLeftNormalization(t *testing.T) {
	// Under NormLeft the root's 1-successor weight is 0.354/(-0.612i) =
	// 0.578i (paper Fig. 4b) and the incoming weight is -0.612i.
	m := New(3, WithNormalization(NormLeft))
	e, _ := m.FromVector(figure4Vector())
	if want := cnum.New(0, -math.Sqrt(3.0/8.0)); !e.W.ApproxEq(want, 1e-9) {
		t.Errorf("root incoming weight = %v, want %v", e.W, want)
	}
	if want := cnum.One; !e.N.E[0].W.ApproxEq(want, 1e-9) {
		t.Errorf("root 0-edge = %v, want 1", e.N.E[0].W)
	}
	// 0.354.../(-0.612...i) = i*sqrt(1/3) ≈ 0.5774i
	if want := cnum.New(0, math.Sqrt(1.0/3.0)); !e.N.E[1].W.ApproxEq(want, 1e-9) {
		t.Errorf("root 1-edge = %v, want %v (Fig. 4b's 0.578i)", e.N.E[1].W, want)
	}
}

func TestAmplitudePathProduct(t *testing.T) {
	// Paper Example 9: the amplitude of |111⟩ is the product of edge
	// weights along the path, 0.354 = sqrt(1/8).
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		m := New(3, WithNormalization(norm))
		e, _ := m.FromVector(figure4Vector())
		got := m.Amplitude(e, 7)
		want := cnum.New(math.Sqrt(1.0/8.0), 0)
		if !got.ApproxEq(want, 1e-9) {
			t.Errorf("norm=%v: amplitude(|111⟩) = %v, want %v", norm, got, want)
		}
	}
}

func TestNormL2PhaseCanonicalUpToPhase(t *testing.T) {
	// Two states differing only by a global phase represent the same
	// physics under NormL2Phase: the phase is extracted into the root edge
	// weight, the diagram below stays the same size, and all amplitudes
	// agree after undoing the rotation. (Node pointers may still differ
	// when the rotated amplitudes land on other interning-grid points.)
	m := New(4, WithNormalization(NormL2Phase))
	r := rand.New(rand.NewPCG(5, 6))
	vec := randomState(r, 4)
	rot := cnum.FromPolar(1, 1.234)
	vec2 := make([]cnum.Complex, len(vec))
	for i := range vec {
		vec2[i] = vec[i].Mul(rot)
	}
	e1, _ := m.FromVector(vec)
	e2, _ := m.FromVector(vec2)
	if c1, c2 := m.NodeCount(e1), m.NodeCount(e2); c1 != c2 {
		t.Errorf("global phase changed the DD size: %d vs %d", c1, c2)
	}
	for i := range vec {
		a1 := m.Amplitude(e1, uint64(i)).Mul(rot)
		a2 := m.Amplitude(e2, uint64(i))
		if !a1.ApproxEq(a2, 1e-8) {
			t.Fatalf("amplitude %d differs after phase rotation: %v vs %v", i, a1, a2)
		}
	}
	// The canonicity that matters operationally: rebuilding the *same*
	// vector always lands on the same root node.
	e3, _ := m.FromVector(vec)
	if e1.N != e3.N {
		t.Error("rebuilding an identical vector created distinct nodes")
	}
}

func TestAddMatchesDense(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		m := New(5, WithNormalization(norm))
		a := randomState(r, 5)
		b := randomState(r, 5)
		ea, _ := m.FromVector(a)
		eb, _ := m.FromVector(b)
		sum := m.Add(ea, eb)
		got, _ := m.ToVector(sum)
		for i := range a {
			want := a[i].Add(b[i])
			if !got[i].ApproxEq(want, 1e-9) {
				t.Fatalf("norm=%v: (a+b)[%d] = %v, want %v", norm, i, got[i], want)
			}
		}
	}
}

// TestResidueFlushComparesSubVectorNorms pins what makeVNode's residue
// flush compares: the norms of the two sub-vectors, not their edge weights.
// Under NormLeft a weight is only the first non-zero amplitude below it, so
// the left half here reaches the root with weight 3e-10 although it holds
// an amplitude of 0.5; a weight test would drop that half. The flush may
// drop only a branch below 1e-8 of its sibling in norm, so every amplitude
// stays within 1e-8, built directly and built as a sum that cancels.
func TestResidueFlushComparesSubVectorNorms(t *testing.T) {
	vec := []cnum.Complex{
		cnum.New(3e-10, 0), cnum.New(3e-10, 0), cnum.New(1e-3, 0), cnum.New(0.5, 0),
		cnum.New(0.5, 0), cnum.Zero, cnum.Zero, cnum.Zero,
	}
	r := rand.New(rand.NewPCG(5, 8))
	x := randomState(r, 3)
	plus, minus := make([]cnum.Complex, len(vec)), make([]cnum.Complex, len(vec))
	for i := range vec {
		plus[i], minus[i] = vec[i].Add(x[i]), x[i].Neg()
	}
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		m := New(3, WithNormalization(norm))
		direct, _ := m.FromVector(vec)
		a, _ := m.FromVector(plus)
		b, _ := m.FromVector(minus)
		for name, e := range map[string]VEdge{"FromVector": direct, "Add": m.Add(a, b)} {
			back, err := m.ToVector(e)
			if err != nil {
				t.Fatalf("%v %s: ToVector: %v", norm, name, err)
			}
			if !vecApproxEq(vec, back, 1e-8) {
				t.Errorf("%v %s: got %v, want %v within 1e-8", norm, name, back, vec)
			}
			if got, want := m.Norm2(e), 0.5+1e-6; math.Abs(got-want) > 1e-8 {
				t.Errorf("%v %s: Norm2 = %v, want %v", norm, name, got, want)
			}
		}
	}
}

func TestAddCancellationYieldsZero(t *testing.T) {
	m := New(3)
	r := rand.New(rand.NewPCG(9, 9))
	vec := randomState(r, 3)
	neg := make([]cnum.Complex, len(vec))
	for i := range vec {
		neg[i] = vec[i].Neg()
	}
	ea, _ := m.FromVector(vec)
	eb, _ := m.FromVector(neg)
	if sum := m.Add(ea, eb); !sum.IsZero() {
		t.Errorf("a + (-a) = %v, want zero edge", sum)
	}
}

func TestInnerProduct(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 17))
	m := New(4)
	a := randomState(r, 4)
	b := randomState(r, 4)
	ea, _ := m.FromVector(a)
	eb, _ := m.FromVector(b)
	var want cnum.Complex
	for i := range a {
		want = want.Add(a[i].Conj().Mul(b[i]))
	}
	if got := m.InnerProduct(ea, eb); !got.ApproxEq(want, 1e-9) {
		t.Errorf("InnerProduct = %v, want %v", got, want)
	}
	if got := m.InnerProduct(ea, ea); !got.ApproxEq(cnum.One, 1e-9) {
		t.Errorf("<a|a> = %v, want 1", got)
	}
	if f := m.Fidelity(ea, ea); !approx(f, 1, 1e-9) {
		t.Errorf("Fidelity(a,a) = %v", f)
	}
}

// Property: FromVector/Amplitude agree on random small states under every
// normalization scheme.
func TestAmplitudeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed1, seed2 uint64, normPick uint8) bool {
		norm := []Norm{NormLeft, NormL2Phase}[normPick%2]
		r := rand.New(rand.NewPCG(seed1, seed2))
		n := 1 + int(seed1%5)
		m := New(n, WithNormalization(norm))
		vec := randomState(r, n)
		e, err := m.FromVector(vec)
		if err != nil {
			return false
		}
		for i := range vec {
			if !m.Amplitude(e, uint64(i)).ApproxEq(vec[i], 1e-9) {
				return false
			}
		}
		return approx(m.Norm2(e), 1, 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFidelityOrthogonalStates(t *testing.T) {
	m := New(3)
	a := m.BasisState(2)
	b := m.BasisState(5)
	if f := m.Fidelity(a, b); f != 0 {
		t.Errorf("fidelity of orthogonal basis states = %v", f)
	}
	if ip := m.InnerProduct(a, b); !ip.IsZero() {
		t.Errorf("inner product of orthogonal states = %v", ip)
	}
}

func TestInnerProductConjugateSymmetry(t *testing.T) {
	r := rand.New(rand.NewPCG(201, 202))
	m := New(4)
	va, _ := m.FromVector(randomState(r, 4))
	vb, _ := m.FromVector(randomState(r, 4))
	ab := m.InnerProduct(va, vb)
	ba := m.InnerProduct(vb, va)
	if !ab.ApproxEq(ba.Conj(), 1e-9) {
		t.Errorf("⟨a|b⟩ = %v but ⟨b|a⟩* = %v", ab, ba.Conj())
	}
}

func TestMulZeroOperandsShortCircuit(t *testing.T) {
	m := New(2)
	st := m.ZeroState()
	if r := m.Mul(MEdge{}, st); !r.IsZero() {
		t.Error("zero operator times state is not zero")
	}
	op := m.GateDD(GateMatrix(hMatrix), 0)
	if r := m.Mul(op, VEdge{}); !r.IsZero() {
		t.Error("operator times zero vector is not zero")
	}
	if r := m.Add(VEdge{}, st); r != st {
		t.Error("0 + state != state")
	}
	if r := m.Add(st, VEdge{}); r != st {
		t.Error("state + 0 != state")
	}
}
