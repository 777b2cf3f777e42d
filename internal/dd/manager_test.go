package dd

import (
	"math/rand/v2"
	"testing"

	"weaksim/internal/cnum"
)

func TestTableStatsCounters(t *testing.T) {
	m := New(3)
	r := rand.New(rand.NewPCG(101, 102))
	vec := randomState(r, 3)
	st, _ := m.FromVector(vec)
	op := m.GateDD(GateMatrix(hMatrix), 1)
	m.Mul(op, st)
	m.Mul(op, st) // second application hits the compute cache

	s := m.TableStats()
	if s.VNodes == 0 || s.MNodes == 0 {
		t.Errorf("expected populated unique tables: %+v", s)
	}
	if s.MulHits == 0 {
		t.Error("repeated Mul produced no cache hits")
	}
	if s.VMisses == 0 {
		t.Error("no vector-node misses recorded")
	}
	if s.ComplexTableEntries == 0 {
		t.Error("no complex representatives recorded")
	}
}

func TestCacheFlushKeepsCorrectness(t *testing.T) {
	// A pathologically small compute cache forces constant flushes; results
	// must not change.
	small := New(4, WithCacheSize(2))
	big := New(4)
	r := rand.New(rand.NewPCG(103, 104))
	vec := randomState(r, 4)
	sSmall, _ := small.FromVector(vec)
	sBig, _ := big.FromVector(vec)
	for i := 0; i < 10; i++ {
		tq := i % 4
		opS := small.GateDD(GateMatrix(hMatrix), tq, Pos((tq+1)%4))
		opB := big.GateDD(GateMatrix(hMatrix), tq, Pos((tq+1)%4))
		sSmall = small.Mul(opS, sSmall)
		sBig = big.Mul(opB, sBig)
	}
	a, _ := small.ToVector(sSmall)
	b, _ := big.ToVector(sBig)
	if !vecApproxEq(a, b, 1e-9) {
		t.Error("tiny compute cache changed the result")
	}
}

func TestShouldGCThreshold(t *testing.T) {
	m := New(4, WithGCThreshold(4))
	if m.ShouldGC() {
		t.Error("fresh manager should not demand GC")
	}
	r := rand.New(rand.NewPCG(105, 106))
	m.FromVector(randomState(r, 4))
	if !m.ShouldGC() {
		t.Error("expected ShouldGC with a threshold of 4 nodes")
	}
}

func TestIdentityFlagDetection(t *testing.T) {
	m := New(4)
	id := m.identityDD(m.nqubits)
	if !id.N.IsIdentity() {
		t.Error("identityDD root not flagged as identity")
	}
	h := m.GateDD(GateMatrix(hMatrix), 2)
	if h.N.IsIdentity() {
		t.Error("H gate flagged as identity")
	}
	// The sub-identity below the target must be flagged: follow the
	// diagonal down past the target level.
	n := h.N
	for n.V > 2 {
		n = n.E[0].N
	}
	// n is the target-level node; its children cover levels below the
	// target and are identities.
	if sub := n.E[0].N; sub != nil && !sub.IsIdentity() {
		t.Error("identity substructure below gate target not flagged")
	}
	// A scaled identity (global phase) is not the identity.
	ph := m.GateDD(GateMatrix([2][2]cnum.Complex{
		{cnum.FromPolar(1, 0.3), cnum.Zero},
		{cnum.Zero, cnum.FromPolar(1, 0.3)},
	}), 0)
	// The node below the root weight is structurally I (the phase went to
	// the top weight), which is exactly why the flag lives on nodes and
	// weights are handled by the caller.
	got, err := m.ToMatrix(ph)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].ApproxEq(cnum.One, 1e-12) {
		t.Error("global-phase gate lost its phase")
	}
}

func TestNewPanicsOnZeroQubits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

func TestMakeVNodePanicsOutOfRange(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.MakeVNode(5, VEdge{W: cnum.One}, VEdge{})
}

func TestMakeMNodePanicsOutOfRange(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.MakeMNode(-1, [4]MEdge{})
}

func TestGateDDValidation(t *testing.T) {
	m := New(3)
	cases := []func(){
		func() { m.GateDD(GateMatrix(hMatrix), 7) },
		func() { m.GateDD(GateMatrix(hMatrix), 0, Pos(0)) },
		func() { m.GateDD(GateMatrix(hMatrix), 0, Pos(1), Pos(1)) },
		func() { m.GateDD(GateMatrix(hMatrix), 0, Pos(9)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNewPanicsBeyondMaxQubits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 65 qubits")
		}
	}()
	New(MaxQubits + 1)
}
