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
	if cap(snap.nodes) != len(snap.nodes) {
		t.Errorf("snapshot of %d nodes keeps spare capacity %d", snap.Len(), cap(snap.nodes))
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
	wantRoot := snap.At(snap.Root())

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
	if got := snap.At(snap.Root()); got != wantRoot {
		t.Errorf("root node changed after manager reuse: %+v vs %+v", got, wantRoot)
	}
	for idx := uint64(0); idx < 8; idx++ {
		if got := snap.Amplitude(idx); got != wantAmps[idx] {
			t.Errorf("amplitude(%d) changed after manager reuse: %v vs %v", idx, got, wantAmps[idx])
		}
	}
}

// TestSnapshotStats: the size report is self-consistent — a snapshot holds
// its node array and nothing else, so Bytes is 48 bytes a node.
func TestSnapshotStats(t *testing.T) {
	snap := mustFreeze(t, NormL2Phase)
	if got, want := snap.Bytes(), 48*snap.Len(); got != want {
		t.Errorf("Bytes = %d, want %d for %d nodes", got, want, snap.Len())
	}
}
