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

// checkTalliesAgree fails unless the dense and map tallies hold the same
// counts through both accessors, with Ascending strictly increasing.
func checkTalliesAgree(t *testing.T, name string, dense, sparse *Tally) {
	t.Helper()
	if dense.dense == nil || sparse.dense != nil {
		t.Fatalf("%s: representations not as forced (dense %v, map %v)", name, dense.dense != nil, sparse.dense == nil)
	}
	if !maps.Equal(dense.Map(), sparse.Map()) {
		t.Fatalf("%s: dense and map tallies differ", name)
	}
	d, s := ascending(dense), ascending(sparse)
	if len(d) != len(s) {
		t.Fatalf("%s: Ascending yields %d dense vs %d map pairs", name, len(d), len(s))
	}
	for i := range d {
		if d[i] != s[i] {
			t.Fatalf("%s: Ascending pair %d: dense %v, map %v", name, i, d[i], s[i])
		}
		if i > 0 && d[i][0] <= d[i-1][0] {
			t.Fatalf("%s: Ascending not increasing at pair %d", name, i)
		}
	}
}

// TestTallyDenseMatchesMap: the dense and map tallies of one batch agree bit
// for bit, at every worker count, where 2^n is one below, equal to and one
// above the shot count, and across the n = 20/21 width limit.
func TestTallyDenseMatchesMap(t *testing.T) {
	vec, _ := frozenRandomVector(10, 17)
	wide, err := NewFrozenSampler(freezeVector(t, vec, dd.NormL2Phase))
	if err != nil {
		t.Fatal(err)
	}
	for _, shots := range []int{1023, 1024, 1025, 3*ChunkShots + 5} {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("10 qubits, %d shots, workers=%d", shots, workers)
			d, err := tallyParallel(context.Background(), wide, 3, shots, workers, true)
			if err != nil {
				t.Fatal(err)
			}
			m, err := tallyParallel(context.Background(), wide, 3, shots, workers, false)
			if err != nil {
				t.Fatal(err)
			}
			checkTalliesAgree(t, name, d, m)
			got, err := CountsParallel(wide, 3, shots, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, m.Map()) {
				t.Errorf("%s: CountsParallel differs from the map tally", name)
			}
		}
		d, m := drawForced(wide, rng.New(5), shots, true), drawForced(wide, rng.New(5), shots, false)
		checkTalliesAgree(t, fmt.Sprintf("10 qubits, %d shots, sequential", shots), d, m)
	}

	// Across the width limit: GHZ states keep the walk cheap and the maps
	// tiny while the batch fills a 2^20-entry dense histogram.
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
			checkTalliesAgree(t, fmt.Sprintf("ghz_%d", n), tally, m)
		}
		counts := tally.Map()
		if len(counts) != 2 || counts[0]+counts[1<<uint(n)-1] != shots {
			t.Errorf("ghz_%d: counts %v, want all %d shots on the two GHZ outcomes", n, counts, shots)
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
// another's, dense into map, map into dense, dense into dense and map into
// map, and each sum equals the per-shot reference of both chunks while
// keeping the receiver's representation.
func TestTallyAddAcrossRepresentations(t *testing.T) {
	vec, _ := frozenRandomVector(10, 17)
	fs, err := NewFrozenSampler(freezeVector(t, vec, dd.NormL2Phase))
	if err != nil {
		t.Fatal(err)
	}
	const seed, shots = 4, 3000
	want := perShotCounts(fs, rng.Stream(seed, 0), shots)
	MergeCounts(want, perShotCounts(fs, rng.Stream(seed, 1), shots))
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

// TestTallyOf: a wrapped map reads back through both accessors unchanged,
// its indices in ascending order.
func TestTallyOf(t *testing.T) {
	counts := map[uint64]int{9: 1, 2: 5, 1 << 40: 3}
	tally := TallyOf(counts)
	if !maps.Equal(tally.Map(), counts) {
		t.Fatalf("Map() = %v, want %v", tally.Map(), counts)
	}
	want := [][2]uint64{{2, 5}, {9, 1}, {1 << 40, 3}}
	if got := ascending(tally); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Ascending = %v, want %v", got, want)
	}
}
