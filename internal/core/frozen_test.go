package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
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
// liveSampler oracle) selects — under every normalization scheme, and so
// under both branch-probability rules (downstream under NormLeft, |w0|²
// under the L2 schemes).
func TestFrozenMatchesLiveBitForBit(t *testing.T) {
	vec, _ := frozenRandomVector(6, 23)
	cases := []struct {
		name string
		norm dd.Norm
	}{
		{"left-generic", dd.NormLeft},
		{"l2-fast", dd.NormL2},
		{"l2phase-fast", dd.NormL2Phase},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := dd.New(6, dd.WithNormalization(tc.norm))
			state, err := m.FromVector(vec)
			if err != nil {
				t.Fatal(err)
			}
			live := newLiveSampler(m, state)
			snap, err := m.Freeze(state)
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

// TestWalkTableGolden pins every walk-table entry — kids and threshold —
// of benchmark states under each branch rule, as SHA-256 digests of the
// entries in index order (two little-endian int32 kids, then the uint64
// threshold). The digests were captured at commit a275163, when the
// snapshot still stored each node's P0, so they prove the thresholds
// derived from the snapshot's weights unchanged bit for bit. Pinned on
// amd64 only, like TestGoldenDDIdentity.
func TestWalkTableGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("threshold bits are pinned on amd64 only")
	}
	for _, g := range []struct {
		name string
		norm dd.Norm
		sha  string
	}{
		{"qft_16", dd.NormL2Phase, "ac61a3a9d35cd7df1a875cd800252cfc43edc4e105258b3a42e2f9152062a32f"},
		{"qft_16", dd.NormLeft, "feeb02632e6d6a983b5736b8b2c6f6b474df417a1409183b90ff3a698a68da30"},
		{"shor_33_2", dd.NormL2Phase, "74556f9c82f706fe9cee2097e239133ae35f5a6cde40089a2948f095189d7387"},
		{"shor_33_2", dd.NormLeft, "b3da4b93c3b3a4df8419284d738656fb44c8baaf837ae6799dded54b7c31074d"},
		{"jellium_2x2", dd.NormL2Phase, "2e97aab69c671553658a1ca68e7b184a10cf939196b4e9481bb964a6364ef21c"},
		{"jellium_2x2", dd.NormLeft, "e8ef1fca90171da092da54ccfe122d98a267a11e3dc5bb53081384daaa121a31"},
		{"supremacy_4x4_10", dd.NormL2Phase, "91fc4a63e37a2e44ae79fb4dce011ab925e1c100aa3b4d836d53eaf255d32cc7"},
		{"supremacy_4x4_10", dd.NormLeft, "5ba543907c4d86d8c6a580ac4a03e1fa839b256858e6a19d6fc8a34c2546f437"},
		{"grover_12", dd.NormL2Phase, "403b1eace193d89a4ab1407f1cb4eb89db1b4e571db7307a308d7e56f646bdf3"},
		{"grover_12", dd.NormL2, "403b1eace193d89a4ab1407f1cb4eb89db1b4e571db7307a308d7e56f646bdf3"},
	} {
		t.Run(g.name+"/"+g.norm.String(), func(t *testing.T) {
			if testing.Short() && (g.name == "shor_33_2" || g.name == "supremacy_4x4_10") {
				t.Skip("slow row under -short")
			}
			fs, err := NewFrozenSampler(freezeCircuit(t, g.name, g.norm))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var entry [16]byte
			for _, w := range fs.walk {
				binary.LittleEndian.PutUint32(entry[:], uint32(w.Kid[0]))
				binary.LittleEndian.PutUint32(entry[4:], uint32(w.Kid[1]))
				binary.LittleEndian.PutUint64(entry[8:], w.T)
				h.Write(entry[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.sha {
				t.Errorf("walk table SHA-256 %s, want %s", got, g.sha)
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
