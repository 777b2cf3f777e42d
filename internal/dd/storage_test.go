package dd

import (
	"errors"
	"math/rand"
	"testing"

	"weaksim/internal/cnum"
)

// applyRandomCircuit drives st through steps pseudo-random gates drawn from
// r (H and CNOT layers) on the given manager, invoking after(st) every 8
// gates so callers can stress GC / invariant checks mid-build.
func applyRandomCircuit(t *testing.T, m *Manager, r *rand.Rand, n, steps int, after func(VEdge)) VEdge {
	t.Helper()
	st := m.ZeroState()
	for i := 0; i < steps; i++ {
		target := r.Intn(n)
		var op MEdge
		switch r.Intn(3) {
		case 0:
			op = m.GateDD(GateMatrix(hMatrix), target)
		case 1:
			op = m.GateDD(GateMatrix(xMatrix), target)
		default:
			ctl := (target + 1 + r.Intn(n-1)) % n
			op = m.GateDD(GateMatrix(xMatrix), target, Control{Qubit: ctl})
		}
		st = m.Mul(op, st)
		if after != nil && i%8 == 7 {
			after(st)
		}
	}
	return st
}

// TestStorageDifferentialStressed is the end-to-end safety net for the
// arena/table engine: a manager squeezed through constant garbage
// collections, slot recycling, and a tiny compute cache must produce the
// exact same amplitudes as an unstressed one, under every normalization
// rule, with storage audits passing after every collection.
func TestStorageDifferentialStressed(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		t.Run(norm.String(), func(t *testing.T) {
			const n, steps, seed = 6, 96, 7
			ref := New(n, WithNormalization(norm))
			refSt := applyRandomCircuit(t, ref, rand.New(rand.NewSource(seed)), n, steps, nil)

			stressed := New(n, WithNormalization(norm), WithGCThreshold(64), WithCacheSize(8))
			gcs := 0
			st := applyRandomCircuit(t, stressed, rand.New(rand.NewSource(seed)), n, steps, func(root VEdge) {
				stressed.GC([]VEdge{root}, nil)
				gcs++
				if err := stressed.CheckInvariants(root); err != nil {
					t.Fatalf("CheckInvariants after GC %d: %v", gcs, err)
				}
				if err := stressed.CheckStorage(); err != nil {
					t.Fatalf("CheckStorage after GC %d: %v", gcs, err)
				}
			})
			if gcs == 0 {
				t.Fatal("stress schedule ran no collections")
			}

			want, err := ref.ToVector(refSt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := stressed.ToVector(st)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("amplitude %d diverged under stress: got %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestArenaRecyclesSlots pins the free-list contract: GC returns dead slots
// to the arena, and subsequent node creation reuses them instead of growing
// the slab list.
func TestArenaRecyclesSlots(t *testing.T) {
	m := New(5)
	root := m.ZeroState()
	for idx := uint64(1); idx < 20; idx++ {
		root = m.Add(root, m.BasisState(idx))
	}
	m.GC([]VEdge{root}, nil)

	// Abandon everything but |0...0>: the rest becomes garbage.
	m.GC([]VEdge{m.ZeroState()}, nil)
	freed := len(m.varena.free)
	if freed == 0 {
		t.Fatal("GC freed no vector arena slots")
	}
	allocated := m.varena.len()

	// Rebuilding must drain the free list before growing the arena.
	rebuilt := m.ZeroState()
	for q := 0; q < 5; q++ {
		rebuilt = m.Mul(m.GateDD(GateMatrix(hMatrix), q), rebuilt)
	}
	if got := len(m.varena.free); got >= freed {
		t.Fatalf("free list did not shrink on reuse: %d -> %d", freed, got)
	}
	if got := m.varena.len(); got != allocated {
		t.Fatalf("arena grew to %d slots despite %d free (was %d)", got, freed, allocated)
	}
	if err := m.CheckInvariants(rebuilt); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckStorage(); err != nil {
		t.Fatal(err)
	}
}

// corruptedManager builds a small state and returns the manager plus one of
// its live vector nodes, ready to be corrupted by the subtests below.
func corruptedManager(t *testing.T) (*Manager, VEdge, *VNode) {
	t.Helper()
	m := New(4)
	st := m.ZeroState()
	for q := 0; q < 4; q++ {
		st = m.Mul(m.GateDD(GateMatrix(hMatrix), q), st)
	}
	if err := m.CheckStorage(); err != nil {
		t.Fatalf("fresh manager fails CheckStorage: %v", err)
	}
	return m, st, st.N
}

func wantCheck(t *testing.T, err error, check string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption went undetected (want %s violation)", check)
	}
	var ie *InvariantError
	if !errors.As(err, &ie) || ie.Check != check {
		t.Fatalf("got %v, want an InvariantError with Check=%s", err, check)
	}
}

// TestCheckStorageDetectsCorruption plants one deliberate inconsistency per
// subtest and demands the whole-table audit names the violated check.
func TestCheckStorageDetectsCorruption(t *testing.T) {
	t.Run("stored_hash", func(t *testing.T) {
		m, _, n := corruptedManager(t)
		n.hash ^= 0xdeadbeef
		wantCheck(t, m.CheckStorage(), CheckTable)
	})
	t.Run("live_slot_on_freelist", func(t *testing.T) {
		m, _, n := corruptedManager(t)
		m.varena.free = append(m.varena.free, n.id)
		wantCheck(t, m.CheckStorage(), CheckArena)
	})
	t.Run("table_count", func(t *testing.T) {
		m, _, _ := corruptedManager(t)
		m.vTab.n++
		wantCheck(t, m.CheckStorage(), CheckTable)
	})
	t.Run("freeze_refuses", func(t *testing.T) {
		m, st, n := corruptedManager(t)
		n.hash ^= 1
		if _, err := m.Freeze(st); err == nil {
			t.Fatal("Freeze accepted a manager with corrupted storage")
		}
	})
}

// TestCacheAdaptiveGrowth pins the resize policy: caches start small, and a
// working set that keeps colliding doubles the table toward the WithCacheSize
// bound instead of thrashing forever.
func TestCacheAdaptiveGrowth(t *testing.T) {
	m := New(2, WithCacheSize(DefaultCacheSize))
	var c mulCache
	op := &MNode{id: 0}
	mkv := func(id int32) *VNode { return &VNode{id: id} }
	for i := int32(0); len(c.entries) == 0 || len(c.entries) == cacheMinSlots; i++ {
		c.put(m, op, mkv(i), VEdge{W: cnum.Complex{Re: 1}})
		if i > 1<<22 {
			t.Fatal("cache never grew despite sustained thrash")
		}
	}
	if got := len(c.entries); got != 2*cacheMinSlots {
		t.Fatalf("first growth step = %d slots, want %d", got, 2*cacheMinSlots)
	}

	// A tiny configured bound must pin the cache at that bound.
	small := New(2, WithCacheSize(2))
	var sc mulCache
	for i := int32(0); i < 64; i++ {
		sc.put(small, op, mkv(i), VEdge{})
	}
	if got := len(sc.entries); got != 2 {
		t.Fatalf("WithCacheSize(2) cache has %d slots, want 2", got)
	}
}
