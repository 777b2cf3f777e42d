package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
	"testing"

	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/rng"
)

// TestTallyDenseRule pins the one rule that picks a tally's representation:
// dense iff n ≤ 20, 2^n ≤ shots and shots < 2^32.
func TestTallyDenseRule(t *testing.T) {
	for _, tc := range []struct {
		qubits, shots int
		want          bool
	}{
		{0, 0, false},
		{0, 1, true},
		{10, 1023, false}, // 2^n = shots+1
		{10, 1024, true},  // 2^n = shots
		{10, 1025, true},  // 2^n = shots-1
		{3, -1, false},
		{20, 1 << 20, true},
		{20, 1<<20 - 1, false},
		{21, 1 << 21, false},
		{21, 1 << 30, false},
		{3, 1<<32 - 1, true},
		{3, 1 << 32, false}, // a uint32 counter could overflow
		{3, 1 << 40, false},
	} {
		if got := tallyDense(tc.qubits, tc.shots); got != tc.want {
			t.Errorf("tallyDense(%d, %d) = %v, want %v", tc.qubits, tc.shots, got, tc.want)
		}
	}
}

// ascending collects a tally's Ascending pairs.
func ascending(t *Tally) [][2]uint64 {
	var out [][2]uint64
	t.Ascending(func(idx uint64, n int) { out = append(out, [2]uint64{idx, uint64(n)}) })
	return out
}

// checkRuns fails unless every run of a run tally is settled and strictly
// ascending with positive counts, and, when shots is not negative, the
// runs' counts sum to shots.
func checkRuns(t *testing.T, name string, tally *Tally, shots int) {
	t.Helper()
	if tally.dense != nil {
		t.Fatalf("%s: a dense tally has no runs", name)
	}
	total := 0
	for k, r := range tally.runs {
		if len(r.idx) != len(r.n) {
			t.Fatalf("%s: run %d holds %d indices and %d counts", name, k, len(r.idx), len(r.n))
		}
		for i, idx := range r.idx {
			if r.n[i] == 0 || i > 0 && idx <= r.idx[i-1] {
				t.Fatalf("%s: run %d entry %d (%d, %d) is not strictly ascending with a positive count", name, k, i, idx, r.n[i])
			}
			total += int(r.n[i])
		}
	}
	if shots >= 0 && total != shots {
		t.Fatalf("%s: runs hold %d shots, want %d", name, total, shots)
	}
}

// checkTalliesAgree fails unless the dense and run tallies hold the same
// (index, count) pairs through both readers, with Ascending strictly
// increasing, and the runs pass checkRuns for shots.
func checkTalliesAgree(t *testing.T, name string, dense, runs *Tally, shots int) {
	t.Helper()
	if dense.dense == nil || runs.dense != nil {
		t.Fatalf("%s: representations not as forced (dense %v, runs %v)", name, dense.dense != nil, runs.dense == nil)
	}
	checkRuns(t, name, runs, shots)
	if !maps.Equal(dense.Map(), runs.Map()) {
		t.Fatalf("%s: dense and run tallies differ", name)
	}
	d, s := ascending(dense), ascending(runs)
	if len(d) != len(s) {
		t.Fatalf("%s: Ascending yields %d dense vs %d run pairs", name, len(d), len(s))
	}
	for i := range d {
		if d[i] != s[i] {
			t.Fatalf("%s: Ascending pair %d: dense %v, runs %v", name, i, d[i], s[i])
		}
		if i > 0 && d[i][0] <= d[i-1][0] {
			t.Fatalf("%s: Ascending not increasing at pair %d", name, i)
		}
	}
}

// TestTallyDenseMatchesRuns: the dense and run tallies of one batch agree
// bit for bit, in one chunk and many, at 1 to 3 workers, where 2^n is one
// below, equal to and one above the shot count, and across the n = 20/21
// width limit; a run tally keeps one run per chunk.
func TestTallyDenseMatchesRuns(t *testing.T) {
	vec, _ := frozenRandomVector(10, 17)
	wide, err := NewFrozenSampler(freezeVector(t, vec, dd.NormL2Phase))
	if err != nil {
		t.Fatal(err)
	}
	for _, shots := range []int{1023, 1024, 1025, 3*ChunkShots + 5} {
		for _, workers := range []int{1, 2, 3} {
			name := fmt.Sprintf("10 qubits, %d shots, workers=%d", shots, workers)
			d, err := tallyParallel(context.Background(), wide, 3, shots, workers, true)
			if err != nil {
				t.Fatal(err)
			}
			m, err := tallyParallel(context.Background(), wide, 3, shots, workers, false)
			if err != nil {
				t.Fatal(err)
			}
			checkTalliesAgree(t, name, d, m, shots)
			if chunks := (shots + ChunkShots - 1) / ChunkShots; len(m.runs) != chunks {
				t.Errorf("%s: %d runs, want one per chunk (%d)", name, len(m.runs), chunks)
			}
			got, err := CountsParallel(wide, 3, shots, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, m.Map()) {
				t.Errorf("%s: CountsParallel differs from the run tally", name)
			}
		}
		d, m := drawForced(wide, rng.New(5), shots, true), drawForced(wide, rng.New(5), shots, false)
		checkTalliesAgree(t, fmt.Sprintf("10 qubits, %d shots, sequential", shots), d, m, shots)
	}

	// Across the width limit: GHZ states keep the walk cheap and the runs
	// short while the batch fills a 2^20-entry dense histogram.
	for _, n := range []int{20, 21} {
		fs, err := NewFrozenSampler(freezeCircuit(t, fmt.Sprintf("ghz_%d", n), dd.NormL2Phase))
		if err != nil {
			t.Fatal(err)
		}
		shots := 1 << 20
		tally, err := TallyParallelContext(context.Background(), fs, 8, shots, 2)
		if err != nil {
			t.Fatal(err)
		}
		if wantDense := n <= denseMaxQubits; (tally.dense != nil) != wantDense {
			t.Fatalf("ghz_%d, %d shots: dense = %v, want %v", n, shots, tally.dense != nil, wantDense)
		}
		if n <= denseMaxQubits {
			m, err := tallyParallel(context.Background(), fs, 8, shots, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			checkTalliesAgree(t, fmt.Sprintf("ghz_%d", n), tally, m, shots)
		} else {
			checkRuns(t, fmt.Sprintf("ghz_%d", n), tally, shots)
		}
		counts := tally.Map()
		if len(counts) != 2 || counts[0]+counts[1<<uint(n)-1] != shots {
			t.Errorf("ghz_%d: counts %v, want all %d shots on the two GHZ outcomes", n, counts, shots)
		}
	}
}

// TestTallyRunsCancellation: a run tally cancelled mid-batch, on the split
// and on the per-shot path, returns partial runs that are still settled and
// strictly ascending, at 1 to 3 workers.
func TestTallyRunsCancellation(t *testing.T) {
	vec, _ := frozenRandomVector(10, 17)
	fs, err := NewFrozenSampler(freezeVector(t, vec, dd.NormL2Phase))
	if err != nil {
		t.Fatal(err)
	}
	const shots = 4 * ChunkShots
	for _, workers := range []int{1, 2, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		s := &cancelAfter{Sampler: fs, limit: ChunkShots + 700, cancel: cancel}
		tally, err := tallyParallel(ctx, s, 3, shots, workers, false)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("per-shot, workers=%d: err = %v, want context.Canceled", workers, err)
		}
		checkRuns(t, fmt.Sprintf("per-shot, workers=%d", workers), tally, -1)

		split, err := tallyParallel(&sharedCountdown{Context: context.Background(), limit: 200}, fs, 3, shots, workers, false)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("split, workers=%d: err = %v, want context.Canceled", workers, err)
		}
		checkRuns(t, fmt.Sprintf("split, workers=%d", workers), split, -1)
		if got := ascending(split); len(got) == 0 {
			t.Errorf("split, workers=%d: the cancelled batch kept no outcomes", workers)
		}
	}
}

// sharedCountdown is countdownCtx for many goroutines: its Err turns to
// context.Canceled on the limit-th call across all of them.
type sharedCountdown struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *sharedCountdown) Err() error {
	if c.calls.Add(1) >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestTallyMergeRuns: Ascending merges runs k ways, summing an index that
// repeats across runs and skipping empty runs; Map agrees; one run reads
// back as is.
func TestTallyMergeRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs []run
		want [][2]uint64
	}{
		{"none", nil, nil},
		{"single", []run{{[]uint64{1, 5, 9}, []uint32{2, 1, 4}}}, [][2]uint64{{1, 2}, {5, 1}, {9, 4}}},
		{"empty runs", []run{{}, {[]uint64{3}, []uint32{1}}, {}}, [][2]uint64{{3, 1}}},
		{"duplicates", []run{
			{[]uint64{1, 4, 7, 1 << 40}, []uint32{1, 1, 1, 3}},
			{[]uint64{0, 4, 8}, []uint32{2, 5, 1}},
			{},
			{[]uint64{4, 7, 9, 1 << 40}, []uint32{1, 2, 1, 1}},
			{[]uint64{2}, []uint32{6}},
		}, [][2]uint64{{0, 2}, {1, 1}, {2, 6}, {4, 7}, {7, 3}, {8, 1}, {9, 1}, {1 << 40, 4}}},
	} {
		tally := &Tally{runs: tc.runs}
		if got := ascending(tally); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: Ascending = %v, want %v", tc.name, got, tc.want)
		}
		want := map[uint64]int{}
		for _, p := range tc.want {
			want[p[0]] = int(p[1])
		}
		if got := tally.Map(); !maps.Equal(got, want) {
			t.Errorf("%s: Map = %v, want %v", tc.name, got, want)
		}
	}
}

// cancelAfter is a sampler that cancels its context once it has drawn
// limit samples; it is not a *FrozenSampler, so the tally loops call Sample
// once per shot and the cancellation lands mid-chunk.
type cancelAfter struct {
	Sampler
	limit  int64
	drawn  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Sample(r *rng.RNG) uint64 {
	if c.drawn.Add(1) == c.limit {
		c.cancel()
	}
	return c.Sampler.Sample(r)
}

// TestTallyDenseCancellation: a batch cancelled mid-chunk on the dense path
// returns its partial tallies, summing to at most shots, with the
// context's error.
func TestTallyDenseCancellation(t *testing.T) {
	fs := faultTestSampler(t)
	const shots = 4 * ChunkShots
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		s := &cancelAfter{Sampler: fs, limit: ChunkShots + 700, cancel: cancel}
		tally, err := TallyParallelContext(ctx, s, 3, shots, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if tally.dense == nil {
			t.Fatalf("workers=%d: a %d-shot 4-qubit batch did not tally dense", workers, shots)
		}
		total := 0
		for _, n := range tally.Map() {
			total += n
		}
		if total < ChunkShots || total >= shots {
			t.Errorf("workers=%d: partial tally holds %d shots, want a part of %d past the first chunk", workers, total, shots)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chunk, err := TallyChunk(ctx, &cancelAfter{Sampler: fs, limit: 1000, cancel: cancel}, 1, 0, ChunkShots)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TallyChunk: err = %v, want context.Canceled", err)
	}
	total := 0
	for _, n := range chunk.Map() {
		total += n
	}
	if total < 1000 || total > 1000+CtxCheckShots {
		t.Errorf("TallyChunk: partial tally holds %d shots, want the %d drawn before the next check", total, 1000)
	}
}

// TestTallyDensePanicBecomesError: an injected walker panic on the dense
// path fails the batch with the panic in its error chain; the healthy
// worker's chunk is still tallied.
func TestTallyDensePanicBecomesError(t *testing.T) {
	fs := faultTestSampler(t)
	if err := fault.Enable("sampler.walk:panic@1", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	tally, err := tallyParallel(context.Background(), fs, 3, 2*ChunkShots, 2, true)
	var ip *fault.InjectedPanic
	if !errors.As(err, &ip) || ip.Point != fault.SamplerWalk {
		t.Fatalf("batch error %v, want *fault.InjectedPanic at %s", err, fault.SamplerWalk)
	}
	total := 0
	for _, n := range tally.Map() {
		total += n
	}
	if total != ChunkShots {
		t.Fatalf("partial tally holds %d shots, want the healthy worker's %d", total, ChunkShots)
	}
}

// TestTallyAddAcrossRepresentations: Add merges one chunk's tally into
// another's, dense into runs, runs into dense, dense into dense and runs
// into runs, and each sum equals the reference splitter's counts of both chunks
// while keeping the receiver's representation.
func TestTallyAddAcrossRepresentations(t *testing.T) {
	vec, _ := frozenRandomVector(10, 17)
	live, fs := liveVector(t, vec, dd.NormL2Phase)
	const seed, shots = 4, 3000
	want := live.splitCounts(rng.Stream(seed, 0), shots)
	MergeCounts(want, live.splitCounts(rng.Stream(seed, 1), shots))
	for _, dst := range []bool{true, false} {
		for _, src := range []bool{true, false} {
			sum := drawForced(fs, rng.Stream(seed, 0), shots, dst)
			sum.Add(drawForced(fs, rng.Stream(seed, 1), shots, src))
			if (sum.dense != nil) != dst {
				t.Errorf("dense=%v += dense=%v: the receiver changed representation", dst, src)
			}
			if !maps.Equal(sum.Map(), want) {
				t.Errorf("dense=%v += dense=%v: sum differs from the per-shot reference", dst, src)
			}
		}
	}
}

// TestTallyRun: a wrapped run reads back through both readers unchanged.
func TestTallyRun(t *testing.T) {
	tally := TallyRun([]uint64{2, 9, 1 << 40}, []uint32{5, 1, 3})
	if want := map[uint64]int{9: 1, 2: 5, 1 << 40: 3}; !maps.Equal(tally.Map(), want) {
		t.Fatalf("Map() = %v, want %v", tally.Map(), want)
	}
	want := [][2]uint64{{2, 5}, {9, 1}, {1 << 40, 3}}
	if got := ascending(tally); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Ascending = %v, want %v", got, want)
	}
}

// reset empties a tally and keeps its storage, so the next chunk's run
// reuses the last one's.
func (t *Tally) reset() {
	clear(t.dense)
	t.runs = t.runs[:0]
}

// BenchmarkTallyAscending times one Ascending pass over a 2^20-shot qft_32
// tally: sixteen 65,536-shot runs, one per chunk, of nearly as many
// distinct outcomes each, merged k ways.
func BenchmarkTallyAscending(b *testing.B) {
	fs, err := NewFrozenSampler(freezeCircuit(b, "qft_32", dd.NormL2Phase))
	if err != nil {
		b.Fatal(err)
	}
	const shots = 1 << 20
	tally, err := tallyParallel(context.Background(), fs, 7, shots, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	if len(tally.runs) != shots/ChunkShots {
		b.Fatalf("%d runs, want %d", len(tally.runs), shots/ChunkShots)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		tally.Ascending(func(_ uint64, n int) { sum += n })
		if sum != shots {
			b.Fatalf("merged %d shots, want %d", sum, shots)
		}
	}
}
