package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
	"weaksim/internal/sim"
)

// blockLengths straddle splitMax, the CtxCheckShots stride of the chunk
// checks, and the 64-shot count at which a 6-qubit split reaches its
// leaves.
var blockLengths = []int{1, splitMax, splitMax + 1, 63, 64, 65, 511, 512, 513}

// blockRules are the normalizations the split must reproduce the reference
// under: NormLeft's thresholds come from the downstream rule,
// NormL2Phase's from |w0|².
var blockRules = []struct {
	name string
	norm dd.Norm
}{
	{"left", dd.NormLeft},
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

// freezeCircuit strong-simulates a named circuit (see testCircuit) and
// freezes it.
func freezeCircuit(t testing.TB, name string, norm dd.Norm) *dd.Snapshot {
	t.Helper()
	return freezeOf(t, testCircuit(t, name), norm)
}

// tilted64 names a 64-qubit product state in which every qubit reads 0 with
// probability 0.6. A walk of its 64 levels consumes 62 bits of its draw on
// average and more than 64 in about one walk of five, so the bits a refill
// shifts in decide its last levels. A uniform state such as qft_40's never
// reads them: each level consumes exactly one bit, and the refill's bits
// sit below the 64 that the draw already holds.
const tilted64 = "tilted_64"

// testCircuit returns tilted64's circuit or the named benchmark circuit.
func testCircuit(t testing.TB, name string) *circuit.Circuit {
	t.Helper()
	if name == tilted64 {
		c := circuit.New(64, tilted64)
		theta := 2 * math.Acos(math.Sqrt(0.6))
		for q := range 64 {
			c.RY(theta, q)
		}
		return c
	}
	c, err := algo.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
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

// liveVector builds an amplitude vector's live diagram under the given
// normalization and returns the reference splitter over it with a sampler
// over its frozen snapshot.
func liveVector(t testing.TB, vec []cnum.Complex, norm dd.Norm) (*liveSampler, *FrozenSampler) {
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
	return liveAndFrozen(t, m, state)
}

// liveCircuit strong-simulates a named benchmark circuit and returns the
// reference splitter over its live diagram with a sampler over its frozen
// snapshot.
func liveCircuit(t testing.TB, name string, norm dd.Norm) (*liveSampler, *FrozenSampler) {
	t.Helper()
	s, err := sim.NewDD(testCircuit(t, name), sim.WithManagerOptions(dd.WithNormalization(norm)))
	if err != nil {
		t.Fatal(err)
	}
	state, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return liveAndFrozen(t, s.Manager(), state)
}

func liveAndFrozen(t testing.TB, m *dd.Manager, state dd.VEdge) (*liveSampler, *FrozenSampler) {
	t.Helper()
	fs, err := NewFrozenSampler(freezeState(t, m, state))
	if err != nil {
		t.Fatal(err)
	}
	return newLiveSampler(m, state), fs
}

// checkSplitMatchesReference asserts that Counts over fs equals the
// reference splitter over live, each from rng.New(seed), bit for bit: the
// same counts, the same renorms, and both generators left in one state.
func checkSplitMatchesReference(t testing.TB, label string, live *liveSampler, fs *FrozenSampler, seed uint64, shots int) {
	t.Helper()
	ref, r := rng.New(seed), rng.New(seed)
	liveBefore, frozenBefore := live.renorms, fs.Renorms()
	want := live.splitCounts(ref, shots)
	if got := Counts(fs, r, shots); !maps.Equal(got, want) {
		t.Fatalf("%s, %d shots: Counts %v, reference splitter %v", label, shots, got, want)
	}
	if a, b := live.renorms-liveBefore, fs.Renorms()-frozenBefore; a != b {
		t.Fatalf("%s, %d shots: renorms: reference %d, Counts %d", label, shots, a, b)
	}
	if a, b := ref.Uint64(), r.Uint64(); a != b {
		t.Fatalf("%s, %d shots: generators diverge after the chunk: %#x vs %#x", label, shots, a, b)
	}
}

// TestSplitMatchesReference: the split over the walk table reproduces the
// reference splitter over the live diagram bit for bit under every
// normalization and branch rule, on a random state (every node distinct)
// and on circuit states with shared nodes and zero edges, at shot counts
// around splitMax, the leaf count and the check stride. A chunk of tilted64
// of at most 64 shots reaches its fallback nodes within a few levels, so
// their walks run about 60 levels and read the bits they refill.
func TestSplitMatchesReference(t *testing.T) {
	vec, _ := frozenRandomVector(7, 31)
	vectors := map[string][]cnum.Complex{"random_7": vec, "running_example": runningExampleVector()}
	for _, rule := range blockRules {
		for _, name := range []string{"random_7", "running_example", "qft_6", "supremacy_3x3_8", tilted64} {
			t.Run(rule.name+"/"+name, func(t *testing.T) {
				var live *liveSampler
				var fs *FrozenSampler
				if v, ok := vectors[name]; ok {
					live, fs = liveVector(t, v, rule.norm)
				} else {
					live, fs = liveCircuit(t, name, rule.norm)
				}
				for i, shots := range append(blockLengths, 5000) {
					checkSplitMatchesReference(t, name, live, fs, uint64(100+i), shots)
				}
			})
		}
	}
}

// slackSampler samples the running example (which has zero edges) with
// every zero-edge node's walk-table threshold moved to 1/2, as
// floating-point slack would on a smaller scale: about half the shots
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

// TestSplitZeroEdgeFallback: with thresholds that send shots to zero edges,
// the split and the per-shot walk both fall back: every shot lands on an
// outcome of nonzero probability, and the renorm count is about the half
// of the shots through each slack node that its threshold sends to the
// zero edge, whether they arrive by a binomial draw or one at a time.
func TestSplitZeroEdgeFallback(t *testing.T) {
	probs := runningExampleProbs()
	for _, rule := range blockRules {
		t.Run(rule.name, func(t *testing.T) {
			for _, shots := range append(blockLengths, 4096) {
				fs := slackSampler(t, rule.norm)
				counts := Counts(fs, rng.New(uint64(shots)), shots)
				total := 0
				for idx, n := range counts {
					if probs[idx] == 0 {
						t.Fatalf("%d shots: fallback produced outcome %03b of probability 0", shots, idx)
					}
					total += n
				}
				if total != shots {
					t.Fatalf("%d shots: tallied %d", shots, total)
				}
				if shots == 4096 && (fs.Renorms() < 4096/8 || fs.Renorms() > 4096) {
					t.Fatalf("%d shots: %d zero-edge fallbacks, want about half the shots through a slack node", shots, fs.Renorms())
				}
			}
			fs := slackSampler(t, rule.norm)
			r := rng.New(3)
			for range 4096 {
				if idx := fs.Sample(r); probs[idx] == 0 {
					t.Fatalf("Sample's fallback produced outcome %03b of probability 0", idx)
				}
			}
			if fs.Renorms() == 0 {
				t.Fatal("Sample took no zero-edge fallback")
			}
		})
	}
}

// TestPairWalkMatchesSerial: a fallback group of any size up to splitMax,
// walked two at a time with the odd shot last, gives the same indices,
// shot by shot, and the same renorm count as walking its draws one by one
// with descend: on the slack running example, whose walks fall back about
// half the time, on tilted64, whose walks read the bits they refill, and
// on ghz_64, whose outcomes include MaxUint64.
// Counts over the group, which splitNode walks from the root, tallies those
// same indices.
func TestPairWalkMatchesSerial(t *testing.T) {
	samplers := map[string]*FrozenSampler{}
	for _, rule := range blockRules {
		samplers["slack/"+rule.name] = slackSampler(t, rule.norm)
	}
	tilted, err := NewFrozenSampler(freezeCircuit(t, tilted64, dd.NormL2Phase))
	if err != nil {
		t.Fatal(err)
	}
	samplers[tilted64] = tilted
	// ghz_64's groups hold the all-ones outcome MaxUint64, beside the
	// MaxUint64 padding of the group's sorting network.
	if samplers["ghz_64"], err = NewFrozenSampler(freezeCircuit(t, "ghz_64", dd.NormL2Phase)); err != nil {
		t.Fatal(err)
	}
	for name, fs := range samplers {
		for group := 1; group <= splitMax; group++ {
			seed := uint64(group)
			r := rng.New(seed)
			draws := make([]uint64, group)
			for i := range draws {
				draws[i] = r.Uint64()
			}
			before := fs.Renorms()
			want := make([]uint64, group)
			for i, d := range draws {
				want[i] = fs.descend(d, fs.root, fs.n)
			}
			serial := fs.Renorms() - before

			before = fs.Renorms()
			got := make([]uint64, group)
			for i := 0; i+1 < group; i += 2 {
				got[i], got[i+1] = fs.descendPair(draws[i], draws[i+1], fs.root, fs.n)
			}
			if group%2 == 1 {
				got[group-1] = fs.descend(draws[group-1], fs.root, fs.n)
			}
			if paired := fs.Renorms() - before; paired != serial {
				t.Fatalf("%s, group of %d: renorms: serial %d, paired %d", name, group, serial, paired)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, group of %d: paired walk %v, serial walk %v", name, group, got, want)
			}

			before = fs.Renorms()
			wantCounts := map[uint64]int{}
			for _, idx := range want {
				wantCounts[idx]++
			}
			if counts := Counts(fs, rng.New(seed), group); !maps.Equal(counts, wantCounts) {
				t.Fatalf("%s, group of %d: Counts %v, serial walks %v", name, group, counts, wantCounts)
			}
			if split := fs.Renorms() - before; split != serial {
				t.Fatalf("%s, group of %d: renorms: serial %d, Counts %d", name, group, serial, split)
			}
		}
		if strings.HasPrefix(name, "slack/") && fs.Renorms() == 0 {
			t.Fatalf("%s: no walk fell back", name)
		}
	}
}

// TestSplitAllocatesNothing: a chunk drawn into a reset tally, which keeps
// its dense array or its run's storage, allocates nothing, at the widest
// register the split supports: the recursion, the binomial draws, the
// per-shot walks and the fallback's group all stay on the stack, and the
// run is reused rather than reallocated.
func TestSplitAllocatesNothing(t *testing.T) {
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
		tally := NewTally(fs.Qubits(), CtxCheckShots+1)
		ctx := context.Background()
		draw := func() {
			tally.reset()
			_ = drawChunk(ctx, fs, r, 0, CtxCheckShots+1, tally)
		}
		draw()
		if allocs := testing.AllocsPerRun(20, draw); allocs != 0 {
			t.Errorf("%s: drawChunk allocates %.1f times per call, want 0", tc.name, allocs)
		}
	}
}

// perShot hides a sampler's concrete type, so the tally loops take their
// one-Sample-per-shot path.
type perShot struct{ Sampler }

// drawForced tallies shots samples from r through drawChunk into a tally
// of the asked representation.
func drawForced(s Sampler, r *rng.RNG, shots int, dense bool) *Tally {
	t := newTally(s.Qubits(), dense)
	_ = drawChunk(context.Background(), s, r, 0, shots, t)
	return t
}

// perShotCounts is the per-shot reference tally: one Sample call per shot.
func perShotCounts(s Sampler, r *rng.RNG, shots int) map[uint64]int {
	counts := map[uint64]int{}
	for i := 0; i < shots; i++ {
		counts[s.Sample(r)]++
	}
	return counts
}

// TestCountsBlockLoopMatchesPerShot: Counts and CountsParallel (drawChunk,
// one chunk or many) over a *FrozenSampler, which split, equal the
// reference splitter over the live diagram, chunk by chunk, at every worker
// count; Counts over the same sampler behind another type, which takes the
// CtxCheckShots block loop, equals the plain per-shot tally. Shot counts
// end mid-block and mid-chunk.
func TestCountsBlockLoopMatchesPerShot(t *testing.T) {
	for _, rule := range blockRules {
		live, fs := liveCircuit(t, "supremacy_3x3_8", rule.norm)
		for _, shots := range []int{0, 1, 513, 3*CtxCheckShots + 7} {
			checkSplitMatchesReference(t, rule.name, live, fs, 11, shots)
			want := perShotCounts(fs, rng.New(11), shots)
			if got := Counts(perShot{fs}, rng.New(11), shots); !maps.Equal(got, want) {
				t.Errorf("%s, %d shots: Counts over a generic Sampler differs from the per-shot tally", rule.name, shots)
			}
		}
		const seed, shots = 9, ChunkShots + 1234
		want := live.splitCounts(rng.Stream(seed, 0), ChunkShots)
		MergeCounts(want, live.splitCounts(rng.Stream(seed, 1), shots-ChunkShots))
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := CountsParallel(fs, seed, shots, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s, workers=%d: CountsParallel differs from the reference splitter", rule.name, workers)
			}
		}
	}
}

// fuzzCircuits are the states FuzzCountsFrozen draws from: a zero-edge
// example, entangled and product-like states, a scrambled circuit, and
// tilted64, whose fallback walks read the bits they refill.
var fuzzCircuits = []string{"running_example", "ghz_5", "wstate_5", "qft_6", "bv_6", "supremacy_3x3_8", tilted64}

// fuzzState is one FuzzCountsFrozen state: the reference splitter over its
// live diagram and a sampler over its snapshot.
type fuzzState struct {
	live *liveSampler
	fs   *FrozenSampler
}

// fuzzStates memoizes fuzz states by circuit and rule; a fuzz worker runs
// its inputs one at a time.
var fuzzStates = map[string]fuzzState{}

// FuzzCountsFrozen: for any seed, shot count up to three check strides and
// a bit, circuit and branch rule, Counts over the frozen sampler equals the
// reference splitter over the live diagram, leaves the generator where it
// does, and only lands on outcomes of nonzero amplitude unless a zero-edge
// fallback was counted; the dense and run tallies of the batch agree
// whichever one the rule picks, on a register narrow enough to tally
// densely, the run strictly ascending; and Sample takes exactly one draw
// per shot.
func FuzzCountsFrozen(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(513), uint8(3), uint8(1))
	f.Add(uint64(3), uint16(3*CtxCheckShots+7), uint8(5), uint8(4))
	f.Add(uint64(4), uint16(64), uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, shots uint16, circuit, rule uint8) {
		name := fuzzCircuits[int(circuit)%len(fuzzCircuits)]
		r := blockRules[int(rule)%len(blockRules)]
		key := fmt.Sprintf("%s/%s", name, r.name)
		st, ok := fuzzStates[key]
		if !ok {
			st.live, st.fs = liveCircuit(t, name, r.norm)
			fuzzStates[key] = st
		}
		live, fs := st.live, st.fs
		n := int(shots) % (3*CtxCheckShots + 8)
		label := fmt.Sprintf("%s, seed %d", key, seed)
		before := fs.Renorms()
		checkSplitMatchesReference(t, label, live, fs, seed, n)
		fellBack := fs.Renorms() != before
		counts := Counts(fs, rng.New(seed), n)
		for idx := range counts {
			if !fellBack && fs.Snapshot().Amplitude(idx).Abs2() == 0 {
				t.Fatalf("%s: outcome %d has amplitude 0 and no fallback was counted", label, idx)
			}
		}
		runs := drawForced(fs, rng.New(seed), n, false)
		if fs.Qubits() <= denseMaxQubits {
			dense := drawForced(fs, rng.New(seed), n, true)
			checkTalliesAgree(t, fmt.Sprintf("%s, %d shots", label, n), dense, runs, n)
		} else {
			checkRuns(t, fmt.Sprintf("%s, %d shots", label, n), runs, n)
		}
		if !maps.Equal(runs.Map(), counts) {
			t.Fatalf("%s, %d shots: run tally differs from Counts", label, n)
		}
		checkDrawBudget(t, label+"/Sample", n, func(r *rng.RNG) {
			for range n {
				fs.Sample(r)
			}
		})
	})
}
