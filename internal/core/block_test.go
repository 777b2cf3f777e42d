package core

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
	"weaksim/internal/sim"
)

// blockLengths straddle SampleBlock's lockstep width and the CtxCheckShots
// block of the tally loops.
var blockLengths = []int{1, 63, 64, 65, 511, 512, 513}

// blockRules are the branch rules the kernel must reproduce: the generic
// downstream rule under every normalization, and the L2 fast rule where it
// applies.
var blockRules = []struct {
	name    string
	norm    dd.Norm
	generic bool
}{
	{"left", dd.NormLeft, false},
	{"l2", dd.NormL2, false},
	{"l2-generic", dd.NormL2, true},
	{"l2phase", dd.NormL2Phase, false},
	{"l2phase-generic", dd.NormL2Phase, true},
}

// freezeVector freezes an amplitude vector under the given rule.
func freezeVector(t testing.TB, vec []cnum.Complex, norm dd.Norm, generic bool) *dd.Snapshot {
	t.Helper()
	n := 0
	for 1<<uint(n) < len(vec) {
		n++
	}
	m := dd.New(n, dd.WithNormalization(norm))
	state, err := m.FromVector(vec)
	if err != nil {
		t.Fatal(err)
	}
	return freezeState(t, m, state, generic)
}

// freezeCircuit strong-simulates a named benchmark circuit and freezes it.
func freezeCircuit(t testing.TB, name string, norm dd.Norm, generic bool) *dd.Snapshot {
	t.Helper()
	c, err := algo.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewDD(c, sim.WithManagerOptions(dd.WithNormalization(norm)))
	if err != nil {
		t.Fatal(err)
	}
	state, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return freezeState(t, s.Manager(), state, generic)
}

func freezeState(t testing.TB, m *dd.Manager, state dd.VEdge, generic bool) *dd.Snapshot {
	t.Helper()
	var opts []dd.FreezeOption
	if generic {
		opts = append(opts, dd.FreezeGeneric())
	}
	snap, err := m.Freeze(state, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// checkBlockMatchesSample asserts that SampleBlock over shots outputs equals
// shots successive Sample calls from an equal generator, bit for bit: the
// same indices, the same Renorms, and both generators left in one state.
// Each side walks its own sampler so their renorm counters stay apart.
func checkBlockMatchesSample(t *testing.T, snap *dd.Snapshot, seed uint64, shots int) {
	t.Helper()
	perShot, err := NewFrozenSampler(snap)
	if err != nil {
		t.Fatal(err)
	}
	block, _ := NewFrozenSampler(snap)
	ra, rb := rng.New(seed), rng.New(seed)
	got := make([]uint64, shots)
	block.SampleBlock(rb, got)
	for i, g := range got {
		if want := perShot.Sample(ra); g != want {
			t.Fatalf("%d shots, seed %d: shot %d: SampleBlock %d, Sample %d", shots, seed, i, g, want)
		}
	}
	if a, b := perShot.Renorms(), block.Renorms(); a != b {
		t.Errorf("%d shots: renorms: Sample %d, SampleBlock %d", shots, a, b)
	}
	if a, b := ra.Uint64(), rb.Uint64(); a != b {
		t.Errorf("%d shots: generators diverge after the block: %#x vs %#x", shots, a, b)
	}
}

// TestSampleBlockMatchesSample: the lockstep kernel reproduces the per-shot
// walk bit for bit under every normalization and branch rule, on a random
// state (every node distinct) and on circuit states with shared nodes and
// zero edges, at block lengths around the kernel's width and the tally
// block.
func TestSampleBlockMatchesSample(t *testing.T) {
	vec, _ := frozenRandomVector(7, 31)
	for _, rule := range blockRules {
		states := map[string]*dd.Snapshot{
			"random_7":        freezeVector(t, vec, rule.norm, rule.generic),
			"running_example": freezeVector(t, runningExampleVector(), rule.norm, rule.generic),
			"qft_6":           freezeCircuit(t, "qft_6", rule.norm, rule.generic),
			"supremacy_3x3_8": freezeCircuit(t, "supremacy_3x3_8", rule.norm, rule.generic),
		}
		for name, snap := range states {
			t.Run(rule.name+"/"+name, func(t *testing.T) {
				for i, shots := range blockLengths {
					checkBlockMatchesSample(t, snap, uint64(100+i), shots)
				}
			})
		}
	}
}

// slackSnapshot freezes the running example (which has zero edges) and then
// moves every zero-edge node's threshold to 1/2, as floating-point slack
// would on a smaller scale: about half the walks through such a node land
// on its zero edge and must fall back to the other branch.
func slackSnapshot(t testing.TB, norm dd.Norm, generic bool) *dd.Snapshot {
	t.Helper()
	snap := freezeVector(t, runningExampleVector(), norm, generic)
	slack := 0
	nodes := snap.Nodes()
	for i := range nodes {
		if nodes[i].Kid[0] == dd.SnapZero || nodes[i].Kid[1] == dd.SnapZero {
			nodes[i].P0 = 0.5
			slack++
		}
	}
	if slack == 0 {
		t.Fatal("running example froze without a zero edge")
	}
	return snap
}

// TestSampleBlockZeroEdgeFallback: with thresholds that put walks on zero
// edges, the kernel takes the same fallbacks as Sample — same indices, no
// extra draw, and the same Renorms count — and the fallback never yields an
// outcome of probability zero.
func TestSampleBlockZeroEdgeFallback(t *testing.T) {
	for _, rule := range blockRules {
		t.Run(rule.name, func(t *testing.T) {
			snap := slackSnapshot(t, rule.norm, rule.generic)
			for i, shots := range blockLengths {
				checkBlockMatchesSample(t, snap, uint64(7+i), shots)
			}
			fs, _ := NewFrozenSampler(snap)
			out := make([]uint64, 4096)
			fs.SampleBlock(rng.New(3), out)
			if fs.Renorms() == 0 {
				t.Fatal("no zero-edge fallback taken")
			}
			probs := runningExampleProbs()
			for _, idx := range out {
				if probs[idx] == 0 {
					t.Fatalf("fallback produced outcome %03b of probability 0", idx)
				}
			}
		})
	}
}

// TestSampleBlockAllocatesNothing pins the kernel's buffers to the stack,
// at the widest register it supports.
func TestSampleBlockAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap *dd.Snapshot
	}{
		{"running_example", freezeVector(t, runningExampleVector(), dd.NormL2Phase, false)},
		{"ghz_64", freezeCircuit(t, "ghz_64", dd.NormL2Phase, false)},
	} {
		fs, err := NewFrozenSampler(tc.snap)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(1)
		out := make([]uint64, CtxCheckShots+1)
		if allocs := testing.AllocsPerRun(20, func() { fs.SampleBlock(r, out) }); allocs != 0 {
			t.Errorf("%s: SampleBlock allocates %.1f times per call, want 0", tc.name, allocs)
		}
	}
}

// perShot hides a sampler's concrete type, so the tally loops take their
// one-Sample-per-shot path.
type perShot struct{ Sampler }

// drawForced tallies shots samples from r through drawChunk into a tally
// of the asked representation.
func drawForced(s Sampler, r *rng.RNG, shots int, dense bool) *Tally {
	t := newTally(s.Qubits(), shots, dense)
	_ = drawChunk(context.Background(), s, r, 0, shots, t)
	return t
}

// perShotCounts is the reference tally: one Sample call per shot.
func perShotCounts(s Sampler, r *rng.RNG, shots int) map[uint64]int {
	counts := map[uint64]int{}
	for i := 0; i < shots; i++ {
		counts[s.Sample(r)]++
	}
	return counts
}

// TestCountsBlockLoopMatchesPerShot: Counts and CountsParallel (drawChunk's
// block loop, one chunk or many) over a *FrozenSampler, which
// draw through the lockstep kernel, equal the plain per-shot tally, and so
// does Counts over the same sampler behind another type, which takes the
// per-shot path; shot counts end mid-block and mid-chunk.
func TestCountsBlockLoopMatchesPerShot(t *testing.T) {
	for _, rule := range blockRules {
		fs, err := NewFrozenSampler(freezeCircuit(t, "supremacy_3x3_8", rule.norm, rule.generic))
		if err != nil {
			t.Fatal(err)
		}
		for _, shots := range []int{0, 1, 513, 3*CtxCheckShots + 7} {
			want := perShotCounts(fs, rng.New(11), shots)
			if got := Counts(fs, rng.New(11), shots); !maps.Equal(got, want) {
				t.Errorf("%s, %d shots: Counts differs from the per-shot tally", rule.name, shots)
			}
			if got := Counts(perShot{fs}, rng.New(11), shots); !maps.Equal(got, want) {
				t.Errorf("%s, %d shots: Counts over a generic Sampler differs", rule.name, shots)
			}
		}
		const seed, shots = 9, ChunkShots + 1234
		want := perShotCounts(fs, rng.Stream(seed, 0), ChunkShots)
		MergeCounts(want, perShotCounts(fs, rng.Stream(seed, 1), shots-ChunkShots))
		for _, workers := range []int{1, 2} {
			got, err := CountsParallel(fs, seed, shots, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s, workers=%d: CountsParallel differs from the per-shot tally", rule.name, workers)
			}
		}
	}
}

// fuzzCircuits are the states FuzzCountsFrozen draws from: a zero-edge
// example, entangled and product-like states, and a scrambled circuit.
var fuzzCircuits = []string{"running_example", "ghz_5", "wstate_5", "qft_6", "bv_6", "supremacy_3x3_8"}

// fuzzSnaps memoizes frozen fuzz states by circuit and rule; a fuzz worker
// runs its inputs one at a time.
var fuzzSnaps = map[string]*dd.Snapshot{}

// FuzzCountsFrozen: for any seed, shot count up to three tally blocks and a
// bit, circuit and branch rule, Counts over the frozen sampler equals the
// per-shot reference tally, and the dense and map tallies of the batch
// agree whichever one the rule picks.
func FuzzCountsFrozen(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(513), uint8(3), uint8(1))
	f.Add(uint64(3), uint16(3*CtxCheckShots+7), uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, shots uint16, circuit, rule uint8) {
		name := fuzzCircuits[int(circuit)%len(fuzzCircuits)]
		r := blockRules[int(rule)%len(blockRules)]
		key := fmt.Sprintf("%s/%s", name, r.name)
		snap, ok := fuzzSnaps[key]
		if !ok {
			snap = freezeCircuit(t, name, r.norm, r.generic)
			fuzzSnaps[key] = snap
		}
		fs, err := NewFrozenSampler(snap)
		if err != nil {
			t.Fatal(err)
		}
		n := int(shots) % (3*CtxCheckShots + 8)
		want := perShotCounts(fs, rng.New(seed), n)
		if got := Counts(fs, rng.New(seed), n); !maps.Equal(got, want) {
			t.Fatalf("%s, seed %d, %d shots: Counts %v, per-shot %v", key, seed, n, got, want)
		}
		dense := drawForced(fs, rng.New(seed), n, true)
		sparse := drawForced(fs, rng.New(seed), n, false)
		checkTalliesAgree(t, fmt.Sprintf("%s, seed %d, %d shots", key, seed, n), dense, sparse)
		if !maps.Equal(sparse.Map(), want) {
			t.Fatalf("%s, seed %d, %d shots: map tally differs from the per-shot tally", key, seed, n)
		}
	})
}
