package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
	"weaksim/internal/stats"
)

// frozenTestState builds the paper's running-example state and a matching
// random 6-qubit state for parity checks.
func frozenRandomVector(n int, seed uint64) ([]cnum.Complex, []float64) {
	r := rng.New(seed)
	size := 1 << uint(n)
	vec := make([]cnum.Complex, size)
	var norm float64
	for i := range vec {
		vec[i] = cnum.New(r.Float64()-0.5, r.Float64()-0.5)
		norm += vec[i].Abs2()
	}
	s := 1 / math.Sqrt(norm)
	for i := range vec {
		vec[i] = vec[i].Scale(s)
	}
	return vec, ProbabilitiesFromAmplitudes(vec)
}

// TestFrozenMatchesLiveBitForBit: for the same random sequence, walks over
// the frozen arrays select exactly the indices the live pointer walk (the
// liveSampler oracle) selects — under every normalization scheme and under
// both branch-probability rules.
func TestFrozenMatchesLiveBitForBit(t *testing.T) {
	vec, _ := frozenRandomVector(6, 23)
	cases := []struct {
		name    string
		norm    dd.Norm
		generic bool
	}{
		{"left-generic", dd.NormLeft, false},
		{"l2-fast", dd.NormL2, false},
		{"l2-forced-generic", dd.NormL2, true},
		{"l2phase-fast", dd.NormL2Phase, false},
		{"l2phase-forced-generic", dd.NormL2Phase, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := dd.New(6, dd.WithNormalization(tc.norm))
			state, err := m.FromVector(vec)
			if err != nil {
				t.Fatal(err)
			}
			var frOpts []dd.FreezeOption
			if tc.generic {
				frOpts = append(frOpts, dd.FreezeGeneric())
			}
			live := newLiveSampler(m, state, tc.generic)
			snap, err := m.Freeze(state, frOpts...)
			if err != nil {
				t.Fatal(err)
			}
			frozen, err := NewFrozenSampler(snap)
			if err != nil {
				t.Fatal(err)
			}
			ra, rb := rng.New(99), rng.New(99)
			for i := 0; i < 20000; i++ {
				lv, fv := live.Sample(ra), frozen.Sample(rb)
				if lv != fv {
					t.Fatalf("shot %d: live %d, frozen %d — walks diverge", i, lv, fv)
				}
			}
			if live.renorms != frozen.Renorms() {
				t.Errorf("renorm counts diverge: live %d, frozen %d", live.renorms, frozen.Renorms())
			}
		})
	}
}

func TestNewFrozenSamplerRejectsBadInput(t *testing.T) {
	if _, err := NewFrozenSampler(nil); err == nil {
		t.Error("expected error for nil snapshot")
	}
}

// TestCountsParallelSingleWorkerIsSequential: a batch of at most ChunkShots
// shots is one chunk and consumes exactly the sequence of rng.New(seed),
// reproducing sequential Counts bit for bit.
func TestCountsParallelSingleWorkerIsSequential(t *testing.T) {
	m := dd.New(3, dd.WithNormalization(dd.NormL2Phase))
	vec := []cnum.Complex{cnum.Zero,
		cnum.New(0, -math.Sqrt(3.0/8.0)), cnum.Zero, cnum.New(0, -math.Sqrt(3.0/8.0)),
		cnum.New(math.Sqrt(1.0/8.0), 0), cnum.Zero, cnum.Zero, cnum.New(math.Sqrt(1.0/8.0), 0)}
	state, err := m.FromVector(vec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := NewFrozenSampler(snap)
	if err != nil {
		t.Fatal(err)
	}
	const seed, shots = 41, 5000
	want := Counts(frozen, rng.New(seed), shots)
	got, err := CountsParallel(frozen, seed, shots, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel(1) outcome count %d, sequential %d", len(got), len(want))
	}
	for idx, n := range want {
		if got[idx] != n {
			t.Errorf("outcome %d: parallel(1) %d, sequential %d", idx, got[idx], n)
		}
	}
}

// TestCountsParallelDeterministicAndComplete: a batch is a pure function of
// (seed, shots) — identical at every worker count and equal to the per-chunk
// reference Σᵢ Counts(Stream(seed, i), chunk i's shots) — and always tallies
// exactly shots samples, including a short last chunk.
func TestCountsParallelDeterministicAndComplete(t *testing.T) {
	vec, _ := frozenRandomVector(5, 7)
	m := dd.New(5, dd.WithNormalization(dd.NormL2Phase))
	state, _ := m.FromVector(vec)
	snap, _ := m.Freeze(state)
	frozen, _ := NewFrozenSampler(snap)

	const seed, shots = 5, 3*ChunkShots + 10007 // four chunks, the last one short
	want := map[uint64]int{}
	for i := 0; i*ChunkShots < shots; i++ {
		MergeCounts(want, Counts(frozen, rng.Stream(seed, i), min(ChunkShots, shots-i*ChunkShots)))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := CountsParallel(frozen, seed, shots, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		total := 0
		for _, n := range got {
			total += n
		}
		if total != shots {
			t.Errorf("workers=%d: tallied %d shots, want %d", workers, total, shots)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d outcomes, per-chunk reference %d", workers, len(got), len(want))
		}
		for idx, n := range want {
			if got[idx] != n {
				t.Errorf("workers=%d outcome %d: %d, per-chunk reference %d", workers, idx, got[idx], n)
			}
		}
	}
}

// TestCountsParallelMatchesDistribution: chi-square goodness of fit of the
// merged parallel tallies against the exact Born distribution at several
// worker counts.
func TestCountsParallelMatchesDistribution(t *testing.T) {
	vec, probs := frozenRandomVector(6, 23)
	m := dd.New(6, dd.WithNormalization(dd.NormL2Phase))
	state, _ := m.FromVector(vec)
	snap, _ := m.Freeze(state)
	frozen, _ := NewFrozenSampler(snap)

	const shots = 60000
	for _, workers := range []int{1, 4, 8} {
		counts, err := CountsParallel(frozen, 31+uint64(workers), shots, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res, err := stats.ChiSquareGOF(counts, probs, shots)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.PValue < 1e-6 {
			t.Errorf("workers=%d: chi-square rejects: stat=%v dof=%d p=%v",
				workers, res.Statistic, res.DoF, res.PValue)
		}
		for idx := range counts {
			if probs[idx] == 0 {
				t.Errorf("workers=%d: sampled impossible outcome %d", workers, idx)
			}
		}
	}
}

// TestCountsParallelContextCancellation: a cancelled batch returns the
// partial tallies the workers managed to draw plus the typed cause; a
// pre-cancelled one draws nothing, since every chunk checks the context
// before its first shot.
func TestCountsParallelContextCancellation(t *testing.T) {
	vec, _ := frozenRandomVector(4, 3)
	m := dd.New(4, dd.WithNormalization(dd.NormL2Phase))
	state, _ := m.FromVector(vec)
	snap, _ := m.Freeze(state)
	frozen, _ := NewFrozenSampler(snap)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counts, err := CountsParallelContext(ctx, frozen, 9, 1<<20, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 0 {
		t.Errorf("pre-cancelled batch drew %d shots, want 0", total)
	}
}

// TestFrozenSamplerParallelStress hammers one snapshot from 16 goroutines.
// Run under -race (see the CI race step) this pins the lock-free concurrent
// read guarantee of the frozen arrays.
func TestFrozenSamplerParallelStress(t *testing.T) {
	vec, probs := frozenRandomVector(6, 55)
	m := dd.New(6, dd.WithNormalization(dd.NormL2Phase))
	state, _ := m.FromVector(vec)
	snap, _ := m.Freeze(state)
	frozen, _ := NewFrozenSampler(snap)

	// The Manager may be reused (even garbage-collected) while sampling runs.
	m.GC(nil, nil)

	const goroutines = 16
	shots := 20000
	if testing.Short() {
		shots = 4000
	}
	var wg sync.WaitGroup
	totals := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.Stream(77, g)
			for i := 0; i < shots; i++ {
				idx := frozen.Sample(r)
				if probs[idx] == 0 {
					t.Errorf("goroutine %d: impossible outcome %d", g, idx)
					return
				}
				totals[g]++
			}
		}(g)
	}
	wg.Wait()
	for g, n := range totals {
		if n != shots {
			t.Errorf("goroutine %d drew %d shots, want %d", g, n, shots)
		}
	}
}

func TestCountsSizeHint(t *testing.T) {
	cases := []struct{ shots, qubits, want int }{
		{1000, 3, 8},     // few basis states bound the hint
		{5, 30, 5},       // few shots bound the hint
		{1 << 20, 4, 16}, // 2^4 outcomes max
		{100, 63, 100},   // huge register: shots bound
		{-3, 5, 0},       // degenerate
	}
	for _, tc := range cases {
		if got := CountsSizeHint(tc.shots, tc.qubits); got != tc.want {
			t.Errorf("CountsSizeHint(%d, %d) = %d, want %d", tc.shots, tc.qubits, got, tc.want)
		}
	}
}

// TestMergeCountsNoAllocs pins the allocation budget of the merge step:
// folding partial tallies into a map that already holds every key performs
// zero heap allocations.
func TestMergeCountsNoAllocs(t *testing.T) {
	parts := make([]map[uint64]int, 8)
	dst := make(map[uint64]int, 64)
	for k := range parts {
		parts[k] = make(map[uint64]int, 64)
		for i := uint64(0); i < 64; i++ {
			parts[k][i] = int(i) + k
			dst[i] = 0
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		MergeCounts(dst, parts...)
	})
	if allocs != 0 {
		t.Errorf("MergeCounts allocated %v objects per run, want 0", allocs)
	}
}

// TestMergeCountsCommutes: merging in any order yields the same tallies.
func TestMergeCountsCommutes(t *testing.T) {
	a := map[uint64]int{1: 2, 3: 4}
	b := map[uint64]int{1: 1, 5: 9}
	x := map[uint64]int{}
	y := map[uint64]int{}
	MergeCounts(x, a, b)
	MergeCounts(y, b, a)
	if len(x) != len(y) {
		t.Fatalf("order-dependent merge: %v vs %v", x, y)
	}
	for k, v := range x {
		if y[k] != v {
			t.Errorf("key %d: %d vs %d", k, v, y[k])
		}
	}
	if x[1] != 3 || x[3] != 4 || x[5] != 9 {
		t.Errorf("merged tallies wrong: %v", x)
	}
}
