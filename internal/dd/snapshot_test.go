package dd

import (
	"math"
	"math/rand/v2"
	"testing"

	"weaksim/internal/cnum"
)

// snapTestState builds the paper's running-example state (Figs. 2-4) under
// the given normalization scheme.
func snapTestState(t *testing.T, norm Norm) (*Manager, VEdge) {
	t.Helper()
	m := New(3, WithNormalization(norm))
	a := cnum.New(0, -math.Sqrt(3.0/8.0))
	b := cnum.New(math.Sqrt(1.0/8.0), 0)
	state, err := m.FromVector([]cnum.Complex{cnum.Zero, a, cnum.Zero, a, b, cnum.Zero, cnum.Zero, b})
	if err != nil {
		t.Fatal(err)
	}
	return m, state
}

// refDown recursively computes downstream mass the way the pre-snapshot
// map-based annotation did, as the test oracle.
func refDown(n *VNode, memo map[*VNode]float64) float64 {
	if n == nil {
		return 1
	}
	if d, ok := memo[n]; ok {
		return d
	}
	var d float64
	for i := 0; i < 2; i++ {
		if e := n.E[i]; !e.IsZero() {
			d += e.W.Abs2() * refDown(e.N, memo)
		}
	}
	memo[n] = d
	return d
}

// snapOrigins maps every snapshot index to the live node it was frozen
// from, by walking the live diagram and the frozen arrays side by side.
func snapOrigins(snap *Snapshot, state VEdge) []*VNode {
	origin := make([]*VNode, snap.Len())
	var walk func(n *VNode, i int32)
	walk = func(n *VNode, i int32) {
		if i < 0 || origin[i] != nil {
			return
		}
		origin[i] = n
		for b, k := range snap.At(i).Kid {
			walk(n.E[b].N, k)
		}
	}
	walk(state.N, snap.Root())
	return origin
}

// TestFreezeSizesArraysExactly: a snapshot frozen from a manager whose
// unique table holds far more nodes than the state reaches keeps no spare
// capacity, so the heap it retains is what Bytes reports.
func TestFreezeSizesArraysExactly(t *testing.T) {
	const n = 10
	m := New(n)
	r := rand.New(rand.NewPCG(1, 2))
	random := func() VEdge {
		vec := make([]cnum.Complex, 1<<n)
		for i := range vec {
			vec[i] = cnum.New(r.Float64(), r.Float64())
		}
		e, err := m.FromVector(vec)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for i := 0; i < 8; i++ {
		random() // dead weight in the unique table
	}
	state := m.BasisState(5)
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	if m.vTab.n <= 8*snap.Len() {
		t.Fatalf("unique table holds %d nodes for a %d-node state; the test needs dead weight", m.vTab.n, snap.Len())
	}
	if cap(snap.nodes) != len(snap.nodes) || cap(snap.down) != len(snap.down) || cap(snap.up) != len(snap.up) {
		t.Errorf("snapshot of %d nodes keeps spare capacity: nodes %d, down %d, up %d",
			snap.Len(), cap(snap.nodes), cap(snap.down), cap(snap.up))
	}
}

func TestFreezeRejectsZeroVector(t *testing.T) {
	m := New(3)
	if _, err := m.Freeze(VEdge{}); err == nil {
		t.Fatal("expected error freezing the zero vector")
	}
}

// TestFreezeTopologicalOrder: post-order indexing means every child index
// is strictly smaller than its parent's — the invariant both annotation
// sweeps rely on.
func TestFreezeTopologicalOrder(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2, NormL2Phase} {
		m, state := snapTestState(t, norm)
		snap, err := m.Freeze(state)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Len() == 0 || snap.Root() != int32(snap.Len()-1) {
			t.Fatalf("norm %v: root index %d, want last index %d", norm, snap.Root(), snap.Len()-1)
		}
		for i := 0; i < snap.Len(); i++ {
			nd := snap.At(int32(i))
			for b := 0; b < 2; b++ {
				if k := nd.Kid[b]; k >= int32(i) {
					t.Errorf("norm %v: node %d child %d has index %d ≥ parent", norm, i, b, k)
				} else if k < SnapZero {
					t.Errorf("norm %v: node %d child %d has invalid index %d", norm, i, b, k)
				}
			}
		}
	}
}

// TestFreezeDownUpMassMatchReference: the flat-array annotation reproduces
// the recursive reference computation node for node, and traversal
// probabilities sum to 1 per level.
func TestFreezeDownUpMassMatchReference(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2, NormL2Phase} {
		m, state := snapTestState(t, norm)
		snap, err := m.Freeze(state)
		if err != nil {
			t.Fatal(err)
		}
		memo := make(map[*VNode]float64)
		refDown(state.N, memo)
		if got, want := snap.Len(), len(memo); got != want {
			t.Fatalf("norm %v: %d frozen nodes, reference reaches %d", norm, got, want)
		}
		origin := snapOrigins(snap, state)
		for i := 0; i < snap.Len(); i++ {
			n := origin[i]
			if n == nil {
				t.Fatalf("norm %v: node %d has no origin", norm, i)
			}
			if got, want := snap.Down(int32(i)), memo[n]; got != want {
				t.Errorf("norm %v: down[%d] = %v, want %v (bit-exact)", norm, i, got, want)
			}
		}
		levelSums := make(map[int32]float64)
		for i := 0; i < snap.Len(); i++ {
			levelSums[snap.At(int32(i)).V] += snap.Traversal(int32(i))
		}
		for level, sum := range levelSums {
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("norm %v: level %d traversal mass %v, want 1", norm, level, sum)
			}
		}
	}
}

// TestFreezeBranchThresholds: under L2 the threshold is exactly |w0|²; the
// generic rule renormalizes by downstream mass, and both versions describe
// the same distribution.
func TestFreezeBranchThresholds(t *testing.T) {
	m, state := snapTestState(t, NormL2Phase)
	fast, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Generic() {
		t.Error("L2Phase snapshot should use the fast probability rule")
	}
	gen, err := m.Freeze(state, FreezeGeneric())
	if err != nil {
		t.Fatal(err)
	}
	if !gen.Generic() {
		t.Error("FreezeGeneric snapshot should report the generic rule")
	}
	root := fast.At(fast.Root())
	if got := root.W[0].Abs2(); got != root.P0 {
		t.Errorf("fast root P0 = %v, want |w0|² = %v", root.P0, got)
	}
	// Paper Fig. 4c/4d: the root splits 3/4 vs 1/4 under both rules.
	for name, snap := range map[string]*Snapshot{"fast": fast, "generic": gen} {
		p0 := snap.At(snap.Root()).P0
		if math.Abs(p0-0.75) > 1e-9 {
			t.Errorf("%s root threshold = %v, want 3/4", name, p0)
		}
	}
}

// TestFreezeAmplitudes: amplitudes reconstructed from the frozen arrays
// match the live diagram's amplitudes for every basis state.
func TestFreezeAmplitudes(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2, NormL2Phase} {
		m, state := snapTestState(t, norm)
		snap, err := m.Freeze(state)
		if err != nil {
			t.Fatal(err)
		}
		for idx := uint64(0); idx < 8; idx++ {
			live := m.Amplitude(state, idx)
			frozen := snap.Amplitude(idx)
			if math.Abs(live.Re-frozen.Re) > 1e-12 || math.Abs(live.Im-frozen.Im) > 1e-12 {
				t.Errorf("norm %v: amplitude(%d) frozen %v, live %v", norm, idx, frozen, live)
			}
		}
	}
}

// TestSnapshotSurvivesManagerReuse pins the manager-reuse-after-freeze
// guarantee: after freezing, the Manager can garbage-collect everything and
// build an entirely different state without invalidating the snapshot.
func TestSnapshotSurvivesManagerReuse(t *testing.T) {
	m, state := snapTestState(t, NormL2Phase)
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	wantAmps := make([]cnum.Complex, 8)
	for idx := uint64(0); idx < 8; idx++ {
		wantAmps[idx] = snap.Amplitude(idx)
	}
	wantNodes := snap.Len()
	wantP0 := snap.At(snap.Root()).P0

	// Reuse the Manager: drop every root, collect, and build a fresh state.
	m.GC(nil, nil)
	other := m.BasisState(5)
	if other.IsZero() {
		t.Fatal("manager reuse failed")
	}
	m.GC([]VEdge{other}, nil)

	if snap.Len() != wantNodes {
		t.Errorf("snapshot node count changed after manager reuse: %d vs %d", snap.Len(), wantNodes)
	}
	if got := snap.At(snap.Root()).P0; got != wantP0 {
		t.Errorf("root threshold changed after manager reuse: %v vs %v", got, wantP0)
	}
	for idx := uint64(0); idx < 8; idx++ {
		if got := snap.Amplitude(idx); got != wantAmps[idx] {
			t.Errorf("amplitude(%d) changed after manager reuse: %v vs %v", idx, got, wantAmps[idx])
		}
	}
}

// TestSnapshotStats: the size report is self-consistent.
func TestSnapshotStats(t *testing.T) {
	m, state := snapTestState(t, NormL2Phase)
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	st := snap.Stats()
	if st.Nodes != snap.Len() {
		t.Errorf("Stats.Nodes = %d, want %d", st.Nodes, snap.Len())
	}
	if st.Bytes < st.Nodes*48 {
		t.Errorf("Stats.Bytes = %d implausibly small for %d nodes", st.Bytes, st.Nodes)
	}
	if st.Generic {
		t.Error("L2Phase snapshot reported generic")
	}
}
