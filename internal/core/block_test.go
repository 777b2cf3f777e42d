package core

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
	"weaksim/internal/sim"
)

// blockLengths straddle SampleBlock's lockstep width and the CtxCheckShots
// block of the tally loops.
var blockLengths = []int{1, 63, 64, 65, 511, 512, 513}

// blockRules are the normalizations the kernel must reproduce the walk
// under: NormLeft's thresholds come from the downstream rule, the L2
// schemes' from |w0|².
var blockRules = []struct {
	name string
	norm dd.Norm
}{
	{"left", dd.NormLeft},
	{"l2", dd.NormL2},
	{"l2phase", dd.NormL2Phase},
}

// freezeVector freezes an amplitude vector under the given normalization.
func freezeVector(t testing.TB, vec []cnum.Complex, norm dd.Norm) *dd.Snapshot {
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
	return freezeState(t, m, state)
}

// freezeCircuit strong-simulates a named benchmark circuit and freezes it.
func freezeCircuit(t testing.TB, name string, norm dd.Norm) *dd.Snapshot {
	t.Helper()
	c, err := algo.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	return freezeOf(t, c, norm)
}

// freezeOf strong-simulates a circuit and freezes it.
func freezeOf(t testing.TB, c *circuit.Circuit, norm dd.Norm) *dd.Snapshot {
	t.Helper()
	s, err := sim.NewDD(c, sim.WithManagerOptions(dd.WithNormalization(norm)))
	if err != nil {
		t.Fatal(err)
	}
	state, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return freezeState(t, s.Manager(), state)
}

func freezeState(t testing.TB, m *dd.Manager, state dd.VEdge) *dd.Snapshot {
	t.Helper()
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// checkBlockMatchesSample asserts that SampleBlock over shots outputs equals
// shots successive Sample calls from an equal generator, bit for bit: the
// same indices, the same Renorms, and both generators left in one state.
// Each side walks its own sampler from newSampler so their renorm counters
// stay apart.
func checkBlockMatchesSample(t *testing.T, newSampler func() *FrozenSampler, seed uint64, shots int) {
	t.Helper()
	perShot, block := newSampler(), newSampler()
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
			"random_7":        freezeVector(t, vec, rule.norm),
			"running_example": freezeVector(t, runningExampleVector(), rule.norm),
			"qft_6":           freezeCircuit(t, "qft_6", rule.norm),
			"supremacy_3x3_8": freezeCircuit(t, "supremacy_3x3_8", rule.norm),
		}
		for name, snap := range states {
			t.Run(rule.name+"/"+name, func(t *testing.T) {
				newSampler := func() *FrozenSampler {
					fs, err := NewFrozenSampler(snap)
					if err != nil {
						t.Fatal(err)
					}
					return fs
				}
				for i, shots := range blockLengths {
					checkBlockMatchesSample(t, newSampler, uint64(100+i), shots)
				}
			})
		}
	}
}

// slackSampler samples the running example (which has zero edges) with
// every zero-edge node's walk-table threshold moved to 1/2, as
// floating-point slack would on a smaller scale: about half the walks
// through such a node land on its zero edge and must fall back to the
// other branch.
func slackSampler(t testing.TB, norm dd.Norm) *FrozenSampler {
	t.Helper()
	fs, err := NewFrozenSampler(freezeVector(t, runningExampleVector(), norm))
	if err != nil {
		t.Fatal(err)
	}
	slack := 0
	for i := range fs.walk {
		if fs.walk[i].Kid[0] == dd.SnapZero || fs.walk[i].Kid[1] == dd.SnapZero {
			fs.walk[i].T = threshold(0.5)
			slack++
		}
	}
	if slack == 0 {
		t.Fatal("running example froze without a zero edge")
	}
	return fs
}

// TestSampleBlockZeroEdgeFallback: with thresholds that put walks on zero
// edges, the kernel takes the same fallbacks as Sample — same indices, no
// extra draw, and the same Renorms count — and the fallback never yields an
// outcome of probability zero.
func TestSampleBlockZeroEdgeFallback(t *testing.T) {
	for _, rule := range blockRules {
		t.Run(rule.name, func(t *testing.T) {
			newSampler := func() *FrozenSampler { return slackSampler(t, rule.norm) }
			for i, shots := range blockLengths {
				checkBlockMatchesSample(t, newSampler, uint64(7+i), shots)
			}
			fs := newSampler()
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
		{"running_example", freezeVector(t, runningExampleVector(), dd.NormL2Phase)},
		{"ghz_64", freezeCircuit(t, "ghz_64", dd.NormL2Phase)},
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
		fs, err := NewFrozenSampler(freezeCircuit(t, "supremacy_3x3_8", rule.norm))
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
// agree whichever one the rule picks. SampleBlock returns Sample's indices
// in order, each with a nonzero snapshot amplitude unless a zero-edge
// fallback was counted, and every path takes exactly one draw per shot.
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
			snap = freezeCircuit(t, name, r.norm)
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

		ra, rb := rng.New(seed), rng.New(seed)
		block := make([]uint64, n)
		before := fs.Renorms()
		fs.SampleBlock(rb, block)
		fellBack := fs.Renorms() != before
		for i, idx := range block {
			if got := fs.Sample(ra); got != idx {
				t.Fatalf("%s, seed %d: shot %d: SampleBlock %d, Sample %d", key, seed, i, idx, got)
			}
			if !fellBack && snap.Amplitude(idx).Abs2() == 0 {
				t.Fatalf("%s, seed %d: shot %d: outcome %d has amplitude 0 and no fallback was counted", key, seed, i, idx)
			}
		}
		ref := rng.New(seed)
		for range n {
			ref.Uint64()
		}
		if a, b, w := ra.Uint64(), rb.Uint64(), ref.Uint64(); a != w || b != w {
			t.Fatalf("%s, seed %d, %d shots: Sample or SampleBlock did not take one draw per shot", key, seed, n)
		}
	})
}
