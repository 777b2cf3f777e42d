package job

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/obs"
	"weaksim/internal/rng"
)

// fakeSampler draws uniform outcomes — enough to prove count plumbing, since
// chunk tallies are a pure function of (seed, chunk index, shots) either way.
type fakeSampler struct{ qubits int }

func (f fakeSampler) Sample(r *rng.RNG) uint64 { return r.Uint64N(1 << f.qubits) }
func (f fakeSampler) Qubits() int              { return f.qubits }

func fakeProvider(qubits int, delay time.Duration) SnapshotFunc {
	return func(ctx context.Context, spec Spec) (core.Sampler, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fakeSampler{qubits}, nil
	}
}

func testSpec(id string, shots, chunk int) Spec {
	return Spec{
		ID:         id,
		Key:        "k-" + id,
		Circuit:    "ghz",
		Qubits:     4,
		Shots:      shots,
		Seed:       42,
		ChunkShots: chunk,
		Priority:   PriorityNormal,
		Tenant:     "t",
		Walk:       core.WalkVersion, // as Submit stamps it
	}
}

// result is Manager.Result keyed by bitstring, the shape the assertions
// compare.
func result(m *Manager, id string) (map[string]int, error) {
	counts, qubits, err := m.Result(id)
	if err != nil {
		return nil, err
	}
	return core.BitstringCounts(counts.Map(), qubits), nil
}

func startManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	return startClockManager(t, cfg, false)
}

func waitFor(t *testing.T, m *Manager, id string, pred func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if pred(st) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("timeout waiting on job %s; last status %+v", id, st)
	return Status{}
}

func completed(st Status) bool { return st.State == StateCompleted }

func TestSubmitRunsToCompletion(t *testing.T) {
	m := startManager(t, Config{Dir: t.TempDir()})
	if _, err := m.Submit(testSpec("j1", 1000, 100)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitFor(t, m, "j1", completed)
	if st.ChunksTotal != 10 || st.ChunksDone != 10 || st.ShotsDone != 1000 {
		t.Errorf("progress total=%d done=%d shots=%d, want 10/10/1000",
			st.ChunksTotal, st.ChunksDone, st.ShotsDone)
	}
	if st.ChunksExecuted != 10 || st.ChunksRecovered != 0 {
		t.Errorf("executed=%d recovered=%d, want 10/0", st.ChunksExecuted, st.ChunksRecovered)
	}
	counts, err := result(m, "j1")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	sum := 0
	for bits, n := range counts {
		if len(bits) != 4 {
			t.Errorf("result key %q not a 4-bit string", bits)
		}
		sum += n
	}
	if sum != 1000 {
		t.Errorf("result sums to %d shots, want 1000", sum)
	}
	if st.PhaseNS["sample"] <= 0 {
		t.Error("phase breakdown missing sample time")
	}
}

func TestInMemoryMode(t *testing.T) {
	m := startManager(t, Config{}) // no Dir: volatile store
	if _, err := m.Submit(testSpec("j1", 200, 50)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, m, "j1", completed)
}

// TestInMemoryJobSkipsWALRecords: a manager without a WAL builds no chunk
// records, and its jobs still return what a durable manager returns — the
// per-chunk reference Σᵢ Counts(Stream(seed, i), chunk i) — while
// job_wal_records_total stays at zero for it and counts every record for
// the durable one.
func TestInMemoryJobSkipsWALRecords(t *testing.T) {
	spec := testSpec("j1", 1000, 300) // four chunks, the last one short
	want := map[string]int{}
	for i := 0; i < spec.ChunksTotal(); i++ {
		for idx, n := range core.Counts(fakeSampler{4}, rng.Stream(spec.Seed, i), spec.ChunkShotCount(i)) {
			want[core.FormatBits(idx, 4)] += n
		}
	}
	for _, tc := range []struct {
		name        string
		dir         string
		wantRecords bool
	}{
		{"in-memory", "", false},
		{"durable", t.TempDir(), true},
	} {
		reg := obs.NewRegistry()
		m := startManager(t, Config{Dir: tc.dir, Metrics: reg})
		if _, err := m.Submit(spec); err != nil {
			t.Fatalf("%s: Submit: %v", tc.name, err)
		}
		waitFor(t, m, spec.ID, completed)
		got, err := result(m, spec.ID)
		if err != nil {
			t.Fatalf("%s: Result: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result %v, per-chunk reference %v", tc.name, got, want)
		}
		records := reg.Counter("job_wal_records_total").Value()
		if tc.wantRecords && records < uint64(1+spec.ChunksTotal()) {
			t.Errorf("%s: job_wal_records_total = %d, want the submit and %d chunk records", tc.name, records, spec.ChunksTotal())
		}
		if !tc.wantRecords && records != 0 {
			t.Errorf("%s: job_wal_records_total = %d, want 0", tc.name, records)
		}
	}
}

// TestDenseJobTallyMergesMapChunks: a job's result equals Σᵢ
// TallyChunk(seed, i, quota) whatever its accumulator (core.Accumulate),
// for jobs of uniform outcomes whose chunks tally into runs. A 17-qubit
// job of 2·65,536+5 shots and a 20-qubit job of 4·65,536 outgrow one run
// of 2^n/16 entries and end dense: as many entries as distinct outcomes,
// not Reusable. A 24-qubit job of 4·65,536 shots, too wide for a dense
// tally, merges its chunks' runs in binary-counter order, so its four
// chunks end as one run (Reusable) of its distinct outcomes.
func TestDenseJobTallyMergesMapChunks(t *testing.T) {
	for _, tc := range []struct {
		qubits, shots int
		dense         bool
	}{
		{17, 2*DefaultChunkShots + 5, true},
		{20, 4 * DefaultChunkShots, true},
		{24, 4 * DefaultChunkShots, false},
	} {
		spec := testSpec(fmt.Sprintf("jq%d", tc.qubits), tc.shots, DefaultChunkShots)
		spec.Qubits = tc.qubits
		want := map[uint64]int{}
		for i := 0; i < spec.ChunksTotal(); i++ {
			chunk, err := core.TallyChunk(context.Background(), fakeSampler{tc.qubits}, spec.Seed, i, spec.ChunkShotCount(i))
			if err != nil {
				t.Fatal(err)
			}
			core.MergeCounts(want, chunk.Map())
		}
		m := startManager(t, Config{Snapshot: fakeProvider(tc.qubits, 0)})
		if _, err := m.Submit(spec); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitFor(t, m, spec.ID, completed)
		got, _, err := m.Result(spec.ID)
		if err != nil {
			t.Fatalf("Result: %v", err)
		}
		if !reflect.DeepEqual(got.Map(), want) {
			t.Fatalf("%d qubits: job result differs from the sum of its chunks' tallies", tc.qubits)
		}
		if got.Len() != len(want) || got.Reusable() == tc.dense {
			t.Errorf("%d qubits: accumulator holds %d entries (one run: %v), want %d in dense=%v",
				tc.qubits, got.Len(), got.Reusable(), len(want), tc.dense)
		}
	}
}

// TestResumeBitIdentical is the durability contract end to end: run a job to
// completion for reference counts, then run the same spec with a stop in the
// middle and a second manager finishing it — merged counts must match
// bit-for-bit, and the resumed process must not redo completed chunks.
func TestResumeBitIdentical(t *testing.T) {
	ref := startManager(t, Config{Dir: t.TempDir()})
	if _, err := ref.Submit(testSpec("jref", 2000, 100)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, ref, "jref", completed)
	want, err := result(ref, "jref")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	dir := t.TempDir()
	// Slow chunks + a tiny compaction threshold: the stop lands mid-job and
	// checkpoint compaction happens during the run, so replay exercises the
	// checkpoint-supersedes path too.
	m1 := NewManager(Config{Dir: dir, SegmentBytes: 512, Snapshot: fakeProvider(4, 5*time.Millisecond)})
	if err := m1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := m1.Submit(testSpec("jref", 2000, 100)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, m1, "jref", func(st Status) bool { return st.ChunksDone >= 3 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := m1.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	cancel()
	st1, _ := m1.Get("jref")
	if st1.State == StateCompleted {
		t.Skip("job finished before the stop landed; nothing to resume")
	}

	m2 := startManager(t, Config{Dir: dir})
	st := waitFor(t, m2, "jref", completed)
	got, err := result(m2, "jref")
	if err != nil {
		t.Fatalf("Result after resume: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed counts differ from uninterrupted run:\n got %v\nwant %v", got, want)
	}
	if st.ChunksRecovered < 3 {
		t.Errorf("recovered %d chunks, want >= 3", st.ChunksRecovered)
	}
	resampled := st.ChunksExecuted - (st.ChunksTotal - st.ChunksRecovered)
	if resampled < 0 || resampled > 1 {
		t.Errorf("re-sampled %d chunks (executed=%d total=%d recovered=%d), want <= 1",
			resampled, st.ChunksExecuted, st.ChunksTotal, st.ChunksRecovered)
	}
}

// TestDuplicateChunkReplay writes the same chunk record twice (as an
// imported store whose segments outlived its compaction can) and checks
// replay merges it once.
func TestDuplicateChunkReplay(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("jdup", 100, 100) // single chunk
	w, _, _, err := openWAL(dir, 0)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	chunk := mustRecord(recChunkJSON, chunkRecord{
		ID: "jdup", Chunk: 0, Shots: 100, Counts: map[string]int{"3": 100},
	})
	for _, rec := range []Record{mustRecord(recSubmit, spec), chunk, chunk} {
		if err := w.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m := startManager(t, Config{Dir: dir})
	st := waitFor(t, m, "jdup", completed)
	if st.ShotsDone != 100 {
		t.Errorf("shots done %d after duplicate replay, want 100", st.ShotsDone)
	}
	counts, err := result(m, "jdup")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if counts["0011"] != 100 || len(counts) != 1 {
		t.Errorf("counts = %v, want exactly {0011: 100}", counts)
	}
}

func TestCancel(t *testing.T) {
	gate := make(chan struct{})
	var started atomic.Bool
	provider := func(ctx context.Context, spec Spec) (core.Sampler, error) {
		started.Store(true)
		select {
		case <-gate:
			return fakeSampler{4}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m := startManager(t, Config{Dir: t.TempDir(), Workers: 1, Snapshot: provider})
	if _, err := m.Submit(testSpec("jrun", 1000, 100)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	q := testSpec("jqueued", 1000, 100)
	if _, err := m.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for !started.Load() {
		time.Sleep(time.Millisecond)
	}

	// Cancelling the queued job is immediate.
	if _, err := m.Cancel("jqueued"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st := waitFor(t, m, "jqueued", func(st Status) bool { return st.State.Terminal() })
	if st.State != StateCancelled {
		t.Errorf("queued job state %s after cancel, want cancelled", st.State)
	}

	// Cancelling the running job interrupts its in-flight chunk.
	if _, err := m.Cancel("jrun"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st = waitFor(t, m, "jrun", func(st Status) bool { return st.State.Terminal() })
	if st.State != StateCancelled {
		t.Errorf("running job state %s after cancel, want cancelled", st.State)
	}
	close(gate)

	// Cancel is idempotent.
	if _, err := m.Cancel("jrun"); err != nil {
		t.Errorf("second Cancel: %v", err)
	}
}

func TestTenantQuota(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	provider := func(ctx context.Context, spec Spec) (core.Sampler, error) {
		select {
		case <-gate:
			return fakeSampler{4}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m := startManager(t, Config{Dir: t.TempDir(), MaxPerTenant: 2, Snapshot: provider})
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(testSpec(fmt.Sprintf("j%d", i), 100, 100)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := m.Submit(testSpec("j2", 100, 100)); !errors.Is(err, ErrQuota) {
		t.Errorf("third submit error = %v, want ErrQuota", err)
	}
	// A different tenant is unaffected.
	other := testSpec("j3", 100, 100)
	other.Tenant = "other"
	if _, err := m.Submit(other); err != nil {
		t.Errorf("other tenant submit: %v", err)
	}
}

// TestVerdictTerminal: MO and TO are terminal states, never retries.
func TestVerdictTerminal(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		wantCode string
	}{
		{"memory_out", fmt.Errorf("sim: %w", dd.ErrNodeBudget), "memory_out"},
		{"timeout", context.DeadlineExceeded, "timeout"},
		{"internal", errors.New("sim: exploded"), "internal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			provider := func(ctx context.Context, spec Spec) (core.Sampler, error) {
				calls.Add(1)
				return nil, tc.err
			}
			m := startManager(t, Config{Dir: t.TempDir(), Snapshot: provider})
			if _, err := m.Submit(testSpec("jv", 1000, 100)); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			st := waitFor(t, m, "jv", func(st Status) bool { return st.State.Terminal() })
			if st.State != StateFailed || st.ErrorCode != tc.wantCode {
				t.Errorf("state=%s code=%s, want failed/%s", st.State, st.ErrorCode, tc.wantCode)
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("provider called %d times for a terminal verdict, want 1", n)
			}
			if _, err := result(m, "jv"); !errors.Is(err, ErrNotCompleted) {
				t.Errorf("Result on failed job = %v, want ErrNotCompleted", err)
			}
		})
	}
}

// TestTransientRetry: ErrRetry releases the chunk and the job still
// completes.
func TestTransientRetry(t *testing.T) {
	var calls atomic.Int64
	provider := func(ctx context.Context, spec Spec) (core.Sampler, error) {
		if calls.Add(1) <= 2 {
			return nil, fmt.Errorf("%w: queue full", ErrRetry)
		}
		return fakeSampler{4}, nil
	}
	m := startManager(t, Config{Dir: t.TempDir(), Snapshot: provider})
	if _, err := m.Submit(testSpec("jr", 300, 100)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitFor(t, m, "jr", completed)
	if st.ChunksDone != 3 {
		t.Errorf("chunks done %d, want 3", st.ChunksDone)
	}
}

// TestFairShareUnderSaturation: one worker, weights 10:1, equal backlogs —
// when the heavy tenant finishes, the light one should have completed about
// one tenth as many chunks.
func TestFairShareUnderSaturation(t *testing.T) {
	m := startManager(t, Config{
		Workers:       1,
		TenantWeights: map[string]int{"heavy": 10, "light": 1},
		MaxPerTenant:  4,
		Snapshot:      fakeProvider(4, time.Millisecond),
	})
	heavy := testSpec("jheavy", 2000, 10) // 200 chunks
	heavy.Tenant = "heavy"
	light := testSpec("jlight", 2000, 10)
	light.Tenant = "light"
	if _, err := m.Submit(heavy); err != nil {
		t.Fatalf("Submit heavy: %v", err)
	}
	if _, err := m.Submit(light); err != nil {
		t.Fatalf("Submit light: %v", err)
	}
	waitFor(t, m, "jheavy", completed)
	st, err := m.Get("jlight")
	if err != nil {
		t.Fatal(err)
	}
	// Ideal is 20 completed chunks; allow slack for the race between the
	// heavy job's terminal transition and this read.
	if st.ChunksDone < 12 || st.ChunksDone > 40 {
		t.Errorf("light tenant completed %d chunks at heavy completion, want ~20 (12..40)", st.ChunksDone)
	}
}

func TestEventsStream(t *testing.T) {
	m := startManager(t, Config{Dir: t.TempDir()})
	if _, err := m.Submit(testSpec("je", 500, 100)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ch, cancel, err := m.Subscribe("je")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer cancel()
	var last Event
	frames := 0
	for ev := range ch {
		frames++
		if ev.ChunksDone < last.ChunksDone {
			t.Errorf("progress went backwards: %d after %d", ev.ChunksDone, last.ChunksDone)
		}
		last = ev
	}
	if frames == 0 {
		t.Fatal("no frames received")
	}
	if !last.Terminal || last.State != StateCompleted || last.ChunksDone != 5 {
		t.Errorf("final frame %+v, want terminal completed 5/5", last)
	}
	if len(last.Top) == 0 {
		t.Error("final frame has no top-k counts")
	}

	// Subscribing to a terminal job yields one closed-stream frame.
	ch2, cancel2, err := m.Subscribe("je")
	if err != nil {
		t.Fatalf("Subscribe terminal: %v", err)
	}
	defer cancel2()
	ev, ok := <-ch2
	if !ok || !ev.Terminal {
		t.Errorf("terminal subscribe frame %+v ok=%v, want terminal frame", ev, ok)
	}
	if _, ok := <-ch2; ok {
		t.Error("terminal subscription not closed after its frame")
	}
}

func TestGetUnknown(t *testing.T) {
	m := startManager(t, Config{})
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get unknown = %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel unknown = %v, want ErrNotFound", err)
	}
	if _, _, err := m.Subscribe("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Subscribe unknown = %v, want ErrNotFound", err)
	}
}

func TestListNewestFirst(t *testing.T) {
	m := startManager(t, Config{})
	a := testSpec("ja", 100, 100)
	a.CreatedUnixMS = 1000
	b := testSpec("jb", 100, 100)
	b.CreatedUnixMS = 2000
	if _, err := m.Submit(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(b); err != nil {
		t.Fatal(err)
	}
	list := m.List()
	if len(list) != 2 || list[0].ID != "jb" || list[1].ID != "ja" {
		t.Errorf("List order %v, want jb then ja", []string{list[0].ID, list[1].ID})
	}
}

// shorJobDigest is the SHA-256 of the checkpoint record payload written
// from a 512k-shot shor_33_2 job's result (seed 42, default chunks): the
// pairs a result body and a checkpoint are both written from. It was
// taken when the job's accumulator was still a dense array of 2^18
// counters, so a run accumulator must write the same bytes.
const shorJobDigest = "70d8354db9f345b9d18bafdcfe2bc1ec6801b6e56910c34e249b6c4c9371301c"

// TestRunJobAccumulator: a 512k-shot shor_33_2 job, 18 qubits wide, keeps
// its counts as its chunks do, in one ascending run that holds each
// outcome once (Reusable: one run, not a dense array of 2^18 counters),
// and writes the same pairs as when they were a dense array.
func TestRunJobAccumulator(t *testing.T) {
	fs := frozenSampler(t, "shor_33_2")
	spec := testSpec("jshor", 8*DefaultChunkShots, DefaultChunkShots)
	spec.Qubits = fs.Qubits()
	m := startManager(t, Config{Snapshot: func(context.Context, Spec) (core.Sampler, error) { return fs, nil }})
	if _, err := m.Submit(spec); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, m, spec.ID, completed)
	got, _, err := m.Result(spec.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if distinct := len(got.Map()); got.Len() != distinct || !got.Reusable() {
		t.Errorf("accumulator holds %d entries (one run: %v), want one run of the %d distinct outcomes",
			got.Len(), got.Reusable(), distinct)
	}
	sum := sha256.Sum256(checkpointRun(spec.ID, nil, spec.Shots, got).Payload)
	if digest := hex.EncodeToString(sum[:]); digest != shorJobDigest {
		t.Errorf("result pairs hash to %s, want %s", digest, shorJobDigest)
	}
}

// BenchmarkJobAccumulator runs one in-memory job per op to its terminal
// event, with a subscriber reading every progress event (each a scan of
// the accumulator for its top counts): a 512k-shot shor_33_2 job, whose
// outcomes concentrate on a few thousand of its 2^18 states, and
// 1M-shot jobs of uniform outcomes (fakeSampler) over 18, 20 and 24
// qubits, whose chunks each hold about 65,000 outcomes. B/op includes the
// accumulator.
func BenchmarkJobAccumulator(b *testing.B) {
	shor := frozenSampler(b, "shor_33_2")
	for _, tc := range []struct {
		name   string
		qubits int
		shots  int
		s      core.Sampler
	}{
		{"shor_33_2", shor.Qubits(), 8 * DefaultChunkShots, shor},
		{"uniform_18", 18, 16 * DefaultChunkShots, fakeSampler{18}},
		{"uniform_20", 20, 16 * DefaultChunkShots, fakeSampler{20}},
		{"uniform_24", 24, 16 * DefaultChunkShots, fakeSampler{24}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := NewManager(Config{Snapshot: func(context.Context, Spec) (core.Sampler, error) { return tc.s, nil }})
			if err := m.Start(); err != nil {
				b.Fatal(err)
			}
			defer m.Stop(context.Background())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := m.Submit(Spec{Circuit: tc.name, Key: "k", Qubits: tc.qubits, Shots: tc.shots, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				ch, cancel, err := m.Subscribe(st.ID)
				if err != nil {
					b.Fatal(err)
				}
				for ev := range ch {
					if ev.Terminal && ev.State != StateCompleted {
						b.Fatalf("job ended %s: %s", ev.State, ev.Error)
					}
				}
				cancel()
			}
		})
	}
}
