package job

// Tests of the group-commit rule (manager.go): a job's chunks share one
// fsync while nothing else is runnable and their drawing fits batchBudget,
// and every chunk commits alone otherwise. The tests that count syncs
// freeze the batch clock, so a descheduled worker cannot close a batch
// early; the budget test sleeps past it instead.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"weaksim/internal/core"
	"weaksim/internal/fault"
	"weaksim/internal/obs"
)

// startClockManager starts a manager (4-qubit fake chunks unless cfg
// names a provider) that Cleanup stops, with the batch clock stopped when
// frozen: no batch then closes for its drawing time.
func startClockManager(t *testing.T, cfg Config, frozen bool) *Manager {
	t.Helper()
	if cfg.Snapshot == nil {
		cfg.Snapshot = fakeProvider(4, 0)
	}
	m := NewManager(cfg)
	if frozen {
		m.now = func() time.Time { return time.Time{} }
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Stop(ctx)
	})
	return m
}

// gated returns a provider whose first call blocks until open is called
// (or its context ends), and s for every call; calls counts them.
func gated(s core.Sampler) (provider SnapshotFunc, open func(), calls func() int) {
	gate := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	n := 0
	provider = func(ctx context.Context, spec Spec) (core.Sampler, error) {
		mu.Lock()
		n++
		mu.Unlock()
		select {
		case <-gate:
			return s, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	calls = func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
	return provider, func() { once.Do(func() { close(gate) }) }, calls
}

// jelliumSpec is an 8-chunk jellium_2x2 job, batch_jobs' shape.
func jelliumSpec(t *testing.T, id string) (Spec, core.Sampler) {
	fs := frozenSampler(t, "jellium_2x2")
	spec := testSpec(id, 8*DefaultChunkShots, DefaultChunkShots)
	spec.Qubits = fs.Qubits()
	return spec, fs
}

// logTypes returns the record types of the log in dir, in order.
func logTypes(t *testing.T, dir string) []uint8 {
	t.Helper()
	recs, _, _, err := load(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	var types []uint8
	for _, rec := range recs {
		types = append(types, rec.Type)
	}
	return types
}

// TestBatchSyncsOncePerJob: an uncontended 8-chunk jellium_2x2 job syncs
// twice, its submit and one batch of its eight chunk records and its
// completed record.
func TestBatchSyncsOncePerJob(t *testing.T) {
	spec, fs := jelliumSpec(t, "jbatch")
	dir, reg := t.TempDir(), obs.NewRegistry()
	m := startClockManager(t, Config{Dir: dir, Metrics: reg,
		Snapshot: func(context.Context, Spec) (core.Sampler, error) { return fs, nil }}, true)
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, spec.ID, completed)
	if syncs := reg.Counter("job_wal_syncs_total").Value(); syncs != 2 {
		t.Errorf("job_wal_syncs_total = %d, want 2", syncs)
	}
	want := []uint8{recSubmit, recChunkRun, recChunkRun, recChunkRun, recChunkRun,
		recChunkRun, recChunkRun, recChunkRun, recChunkRun, recState}
	if got := logTypes(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("log record types %v, want %v", got, want)
	}
}

// TestBatchBudgetClosesEveryChunk: with every chunk's drawing stretched
// past batchBudget, each chunk commits alone: the submit and eight syncs.
func TestBatchBudgetClosesEveryChunk(t *testing.T) {
	spec, fs := jelliumSpec(t, "jslow")
	if err := fault.Enable("job.chunk.sample:latency(2ms)", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	reg := obs.NewRegistry()
	m := startClockManager(t, Config{Dir: t.TempDir(), Metrics: reg,
		Snapshot: func(context.Context, Spec) (core.Sampler, error) { return fs, nil }}, false)
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, spec.ID, completed)
	if syncs := reg.Counter("job_wal_syncs_total").Value(); syncs != 9 {
		t.Errorf("job_wal_syncs_total = %d, want 9: the submit, then one per chunk", syncs)
	}
}

// TestBatchContendedCommitsAlone: while a job of another tenant is
// runnable, a batch closes at every chunk, so two 8-chunk jobs on one
// worker sync once per submit and once per chunk.
func TestBatchContendedCommitsAlone(t *testing.T) {
	provider, open, _ := gated(fakeSampler{4})
	reg := obs.NewRegistry()
	m := startClockManager(t, Config{Dir: t.TempDir(), Metrics: reg, Workers: 1, Snapshot: provider}, true)
	a, b := testSpec("ja", 800, 100), testSpec("jb", 800, 100)
	b.Tenant = "other"
	if _, err := m.Submit(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(b); err != nil {
		t.Fatal(err)
	}
	open()
	waitFor(t, m, a.ID, completed)
	waitFor(t, m, b.ID, completed)
	if syncs := reg.Counter("job_wal_syncs_total").Value(); syncs != 2+16 {
		t.Errorf("job_wal_syncs_total = %d, want 18: two submits, then one per chunk", syncs)
	}
}

// TestBatchEventsPerChunk: a subscriber sees one progress frame per chunk
// of a batch, then the terminal frame, as when every chunk committed
// alone.
func TestBatchEventsPerChunk(t *testing.T) {
	provider, open, _ := gated(fakeSampler{4})
	m := startClockManager(t, Config{Dir: t.TempDir(), Snapshot: provider}, true)
	spec := testSpec("jev", 800, 100)
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Subscribe(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	open()
	var done []int
	var last Event
	for ev := range ch {
		done = append(done, ev.ChunksDone)
		last = ev
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(done, want) {
		t.Errorf("frames' chunks_done %v, want %v", done, want)
	}
	if !last.Terminal || last.State != StateCompleted {
		t.Errorf("last frame %+v, want terminal completed", last)
	}
}

// TestBatchCompactionKeepsPendingChunk: a compaction that lands after a
// chunk's frame is written but before its batch syncs replaces the log
// that frame is in. The chunk is not visible yet, and a restart from the
// compacted log recovers it.
func TestBatchCompactionKeepsPendingChunk(t *testing.T) {
	provider, open, calls := gated(fakeSampler{4})
	defer open()
	dir := t.TempDir()
	m := startClockManager(t, Config{Dir: dir, Workers: 1, Snapshot: provider}, true)
	spec := testSpec("jcmp", 400, 100)
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	for calls() == 0 { // the worker holds the job, drawing chunk 0
		time.Sleep(time.Millisecond)
	}
	counts, err := core.TallyChunk(context.Background(), fakeSampler{4}, spec.Seed, 1, spec.ChunkShotCount(1))
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	j := m.jobs[spec.ID]
	m.mu.Unlock()
	m.commitChunk(j, 1, counts, time.Time{}) // chunk 1's frame, pending
	m.mu.Lock()
	err = m.compactLocked()
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Get(spec.ID); st.ChunksDone != 0 {
		t.Fatalf("chunks_done %d before the batch synced, want 0", st.ChunksDone)
	}

	// The page cache outlives a SIGKILL: a copy of the log is what a
	// restart after one reads.
	restart := t.TempDir()
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(restart, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := startManager(t, Config{Dir: restart})
	st := waitFor(t, m2, spec.ID, completed)
	if st.ChunksRecovered != 1 {
		t.Fatalf("recovered %d chunks, want the pending chunk 1", st.ChunksRecovered)
	}
}
