package dd

import (
	"math/rand/v2"
	"testing"
)

// The storage-layer microbenchmarks pin the three hot paths the arena /
// open-addressing refactor targets: node creation through the unique table,
// pure unique-table lookups, and compute-cache hits. The hit paths must not
// allocate — TestStorageHitPathsAllocFree holds AllocsPerRun to exactly
// zero, so any future change that sneaks an allocation into a probe fails
// the suite rather than a benchmark review.

// benchWorklist harvests every (level, e0, e1) triple of a random state's
// nodes: feeding them back through MakeVNode exercises the unique-table hit
// path with realistic structure sharing.
func benchWorklist(m *Manager, root VEdge) (levels []int, succ [][2]VEdge) {
	seen := map[*VNode]bool{}
	var walk func(n *VNode)
	walk = func(n *VNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		levels = append(levels, n.V)
		succ = append(succ, n.E)
		walk(n.E[0].N)
		walk(n.E[1].N)
	}
	walk(root.N)
	return levels, succ
}

func benchRandomDD(b *testing.B, n int, norm Norm) (*Manager, VEdge) {
	b.Helper()
	m := New(n, WithNormalization(norm))
	r := rand.New(rand.NewPCG(7, 9))
	st, err := m.FromVector(randomState(r, n))
	if err != nil {
		b.Fatal(err)
	}
	return m, st
}

// BenchmarkMakeVNode measures MakeVNode on the hit path: normalization,
// weight interning, hash, and the unique-table probe for a node that already
// exists. This is the per-node cost every gate application pays.
func BenchmarkMakeVNode(b *testing.B) {
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		norm := norm
		b.Run(norm.String(), func(b *testing.B) {
			m, st := benchRandomDD(b, 10, norm)
			levels, succ := benchWorklist(m, st)
			b.ReportAllocs()
			b.ResetTimer()
			var sink VEdge
			for i := 0; i < b.N; i++ {
				k := i % len(levels)
				sink = m.MakeVNode(levels[k], succ[k][0], succ[k][1])
			}
			_ = sink
		})
	}
}

// BenchmarkUniqueLookup isolates the unique-table probe: the successors are
// already canonical (weights interned, normalization a no-op for the stored
// pairs), so the work left is hashing and the table walk.
func BenchmarkUniqueLookup(b *testing.B) {
	m, st := benchRandomDD(b, 12, NormL2Phase)
	levels, succ := benchWorklist(m, st)
	b.ReportAllocs()
	b.ResetTimer()
	var sink VEdge
	for i := 0; i < b.N; i++ {
		k := i % len(levels)
		sink = m.MakeVNode(levels[k], succ[k][0], succ[k][1])
	}
	_ = sink
}

// BenchmarkComputeCacheHit measures Mul when the (operator node, state node)
// pair is already cached: one probe at the root level answers the whole
// product.
func BenchmarkComputeCacheHit(b *testing.B) {
	m, st := benchRandomDD(b, 10, NormL2Phase)
	op := m.GateDD(GateMatrix(hMatrix), 4, Pos(7))
	res := m.Mul(op, st) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = m.Mul(op, st)
	}
	_ = res
}

// TestStorageHitPathsAllocFree pins AllocsPerRun == 0 on the three hit
// paths: MakeVNode of an existing node, the same probe under NormLeft, and a
// compute-cache hit. A regression here means a probe started allocating.
func TestStorageHitPathsAllocFree(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		m := New(8, WithNormalization(norm))
		r := rand.New(rand.NewPCG(11, 13))
		st, err := m.FromVector(randomState(r, 8))
		if err != nil {
			t.Fatal(err)
		}
		levels, succ := benchWorklist(m, st)
		k := len(levels) / 2
		if got := testing.AllocsPerRun(200, func() {
			m.MakeVNode(levels[k], succ[k][0], succ[k][1])
		}); got != 0 {
			t.Errorf("norm %v: MakeVNode hit path allocates %.1f/op, want 0", norm, got)
		}

		op := m.GateDD(GateMatrix(hMatrix), 3)
		m.Mul(op, st) // warm
		if got := testing.AllocsPerRun(200, func() {
			m.Mul(op, st)
		}); got != 0 {
			t.Errorf("norm %v: compute-cache hit path allocates %.1f/op, want 0", norm, got)
		}

		m.Add(st, st) // warm the add cache
		if got := testing.AllocsPerRun(200, func() {
			m.Add(st, st)
		}); got != 0 {
			t.Errorf("norm %v: add-cache hit path allocates %.1f/op, want 0", norm, got)
		}
	}
}
