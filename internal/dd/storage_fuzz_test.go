package dd

import (
	"math"
	"testing"

	"weaksim/internal/cnum"
)

// FuzzMakeVNode hammers the hash-cons entry point with arbitrary weights
// under every normalization rule and demands the storage engine's two core
// properties survive: identical inputs yield the identical node pointer
// (canonicity — no duplicate ever enters the unique table), and the
// whole-table audit stays clean (every slot coherent, counts exact).
func FuzzMakeVNode(f *testing.F) {
	f.Add(uint8(0), 1.0, 0.0, 0.0, 0.0, 0.5, 0.5, -0.5, 0.5)
	f.Add(uint8(1), 0.7, 0.1, -0.2, 0.3, 0.0, 0.0, 1.0, 0.0)
	f.Add(uint8(2), 0.3, -0.4, 0.5, 0.6, -0.1, 0.2, 0.3, -0.4)
	f.Add(uint8(5), -0.0, 0.0, 1e-12, -1e-12, 2.0, -3.0, 0.25, 0.75)
	f.Fuzz(func(t *testing.T, normSel uint8, re0, im0, re1, im1, re2, im2, re3, im3 float64) {
		for _, x := range []float64{re0, im0, re1, im1, re2, im2, re3, im3} {
			// Non-finite weights are rejected upstream of the storage layer;
			// they would only fuzz float arithmetic, not the tables.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				t.Skip()
			}
		}
		m := New(2, WithNormalization(Norm(normSel%2)))

		// Two level-0 nodes from the fuzzed weights, then a level-1 node
		// over them: every makeVNode call must be reproducible.
		leaf := func(wa, wb cnum.Complex) VEdge {
			e := m.makeVNode(0, VEdge{W: wa}, VEdge{W: wb})
			again := m.makeVNode(0, VEdge{W: wa}, VEdge{W: wb})
			if e.N != again.N || e.W != again.W {
				t.Fatalf("level-0 make not canonical: %+v vs %+v", e, again)
			}
			return e
		}
		l0 := leaf(cnum.New(re0, im0), cnum.New(re1, im1))
		l1 := leaf(cnum.New(re2, im2), cnum.New(re3, im3))

		top := m.makeVNode(1, l0, l1)
		if again := m.makeVNode(1, l0, l1); top.N != again.N || top.W != again.W {
			t.Fatalf("level-1 make not canonical: %+v vs %+v", top, again)
		}
		// Swapped successors must only alias the same node when the edges
		// are themselves equal.
		if swapped := m.makeVNode(1, l1, l0); l0 != l1 && !l0.IsZero() && !l1.IsZero() {
			if eq := swapped.N == top.N && swapped.W == top.W; eq && l0 != l1 {
				t.Fatalf("distinct successor order collapsed: %+v", swapped)
			}
		}

		if err := m.CheckStorage(); err != nil {
			t.Fatalf("storage audit after fuzzed makes: %v", err)
		}
	})
}
