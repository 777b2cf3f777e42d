package job

// Fault-injection coverage for the job tier's four chaos points
// (job.wal.write, job.wal.sync, job.wal.replay, job.chunk.sample) plus the
// recovery behaviors that only matter under damage: terminal-job retention
// and replay of a WAL containing garbage records. Runs in `make chaos` via
// the Fault name pattern.

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"weaksim/internal/core"
	"weaksim/internal/fault"
	"weaksim/internal/obs"
)

// TestFaultWALWriteCorrupt arms byte corruption on the WAL append path:
// the running manager is unaffected (the in-memory state is the source of
// truth until restart), but the reopening manager must detect the mangled
// record by CRC, quarantine the log, and come up empty rather than
// resurrect damaged state.
func TestFaultWALWriteCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := fault.Enable("job.wal.write:corrupt@1", 7); err != nil {
		t.Fatal(err)
	}
	m := startManager(t, Config{Dir: dir})
	// First append is the submit record — the corrupted one.
	st, err := m.Submit(testSpec("jwc", 100, 50))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, m, st.ID, completed)
	fault.Disable()
	ctx, cancel := testCtx()
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	m2 := startManager(t, Config{Dir: dir})
	if _, err := m2.Get(st.ID); err == nil {
		t.Fatal("job replayed from a log whose submit record was corrupted on write")
	}
	corrupt, _ := filepath.Glob(filepath.Join(dir, "*"+corruptExt))
	if len(corrupt) == 0 {
		t.Fatal("no quarantined log after corrupt-on-write")
	}
	// The store must still be serviceable.
	st2, err := m2.Submit(testSpec("jwc2", 100, 50))
	if err != nil {
		t.Fatalf("Submit after quarantine: %v", err)
	}
	waitFor(t, m2, st2.ID, completed)
}

// TestFaultWALReplayCorrupt damages the bytes as they are read back:
// replay must detect the flip by CRC and salvage — keep the valid record
// prefix, quarantine or truncate the damage — and whatever job state
// survives must be coherent: absent, or resumable to a bit-exact result.
func TestFaultWALReplayCorrupt(t *testing.T) {
	dir := t.TempDir()
	m := startManager(t, Config{Dir: dir})
	st, err := m.Submit(testSpec("jrc", 100, 50))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, m, st.ID, completed)
	ctx, cancel := testCtx()
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	log := filepath.Join(dir, logName)
	before, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}

	if err := fault.Enable("job.wal.replay:corrupt@1", 11); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	m2 := startManager(t, Config{Dir: dir})
	// The damage was detected one way or the other: either the log was
	// quarantined (CRC failure) or its tail read as torn (the flip landed
	// in a length). Salvage also replaces the log with the live state, so
	// "nothing changed" is a failure.
	corrupt, _ := filepath.Glob(filepath.Join(dir, "*"+corruptExt))
	after, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) == 0 && bytes.Equal(after, before) {
		t.Fatal("corrupt-on-replay left the WAL byte-identical: the flip was not detected")
	}
	// Whatever survived must still be serviceable and exact.
	if _, err := m2.Get(st.ID); err == nil {
		final := waitFor(t, m2, st.ID, completed)
		counts, err := result(m2, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != 100 {
			t.Fatalf("salvaged job's counts sum to %d, want 100 (status %+v)", total, final)
		}
	}
}

// TestFaultSalvageCompactionFails: a damaged log stays authoritative until
// its salvaged state is durably in place. The log loses a record to a
// flipped byte, and the compaction that would replace it with the salvaged
// state fails: the store does not start, and the log keeps its bytes. The
// next start salvages again, and every job before the damage resumes to
// the counts of an uninterrupted run.
func TestFaultSalvageCompactionFails(t *testing.T) {
	dir := t.TempDir()
	specs := []Spec{testSpec("ja", 400, 100), testSpec("jb", 300, 100)}
	want, tallies := map[string]map[string]int{}, map[string][]*core.Tally{}
	for _, spec := range specs {
		want[spec.ID] = map[string]int{}
		for i := 0; i < spec.ChunksTotal(); i++ {
			counts, err := core.TallyChunk(context.Background(), fakeSampler{4}, spec.Seed, i, spec.ChunkShotCount(i))
			if err != nil {
				t.Fatal(err)
			}
			tallies[spec.ID] = append(tallies[spec.ID], counts)
			for idx, n := range counts.Map() {
				want[spec.ID][core.FormatBits(idx, 4)] += n
			}
		}
	}
	chunk := func(spec Spec, i int) Record {
		return chunkRun(spec.ID, i, spec.ChunkShotCount(i), tallies[spec.ID][i])
	}
	w, _, _ := openTestWAL(t, dir, 0)
	records := []Record{
		mustRecord(recSubmit, specs[0]), chunk(specs[0], 0), chunk(specs[0], 1),
		mustRecord(recSubmit, specs[1]), chunk(specs[1], 0),
		chunk(specs[0], 2), // damaged below: it and everything after are lost
		mustRecord(recSubmit, testSpec("jlost", 100, 100)),
	}
	var damageAt int
	for i, rec := range records {
		if i == 5 {
			damageAt = int(w.size) + frameOverhead
		}
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	data[damageAt] ^= 0x40
	if err := os.WriteFile(w.path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := fault.Enable("job.wal.write:err@1+", 1); err != nil {
		t.Fatal(err)
	}
	err = NewManager(Config{Dir: dir, Snapshot: fakeProvider(4, 0)}).Start()
	fault.Disable()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Start = %v, want the salvage compaction's injected failure", err)
	}
	if got, _ := os.ReadFile(w.path); !bytes.Equal(got, data) {
		t.Fatal("the damaged log changed though its salvaged state was never written")
	}

	m := startManager(t, Config{Dir: dir})
	if _, err := m.Get("jlost"); err == nil {
		t.Fatal("a job submitted after the damage replayed")
	}
	for _, spec := range specs {
		st := waitFor(t, m, spec.ID, completed)
		if recovered := map[string]int{"ja": 2, "jb": 1}[spec.ID]; st.ChunksRecovered != recovered {
			t.Fatalf("%s recovered %d chunks, want %d", spec.ID, st.ChunksRecovered, recovered)
		}
		got, err := result(m, spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, want[spec.ID]) {
			t.Fatalf("%s resumed to %v, uninterrupted reference %v", spec.ID, got, want[spec.ID])
		}
	}
	corrupt, _ := filepath.Glob(filepath.Join(dir, "*"+corruptExt))
	if len(corrupt) != 2 {
		t.Fatalf("quarantines %v, want one per salvage", corrupt)
	}
	for _, name := range corrupt {
		if got, _ := os.ReadFile(name); !bytes.Equal(got, data) {
			t.Fatalf("%s does not hold the damaged log", name)
		}
	}
}

// TestFaultWALSyncFails: a failed fsync of a batch makes none of it
// visible. An 8-chunk job's one batch (its chunks and completed record)
// fails to sync: no progress frame and no chunk shows until the chunks are
// drawn again after retryBackoff, the job then completes with the counts
// of an unfaulted run, and a restart replays the log, which holds the
// batch's chunk frames twice, to the same status and counts.
func TestFaultWALSyncFails(t *testing.T) {
	spec := testSpec("jsync", 800, 100)
	ref := startManager(t, Config{})
	if _, err := ref.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ref, spec.ID, completed)
	want, err := result(ref, spec.ID)
	if err != nil {
		t.Fatal(err)
	}

	provider, open, calls := gated(fakeSampler{4})
	defer open()
	dir, reg := t.TempDir(), obs.NewRegistry()
	m := startClockManager(t, Config{Dir: dir, Metrics: reg, Snapshot: provider}, true)
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Subscribe(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := fault.Enable("job.wal.sync:err@1", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	open()
	for reg.Counter("job_wal_errors_total").Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The chunks wait out retryBackoff before they are drawn again: what
	// is read before the first of those draws shows nothing of the batch.
	before, _ := m.Get(spec.ID)
	var frames []Event
	for drained := false; !drained; {
		select {
		case ev, ok := <-ch:
			if ok {
				frames = append(frames, ev)
			}
			drained = !ok
		default:
			drained = true
		}
	}
	if calls() > spec.ChunksTotal() {
		t.Log("the retry began before the visibility check; skipped it")
	} else {
		if before.ChunksDone != 0 || before.ShotsDone != 0 {
			t.Fatalf("after the failed sync: chunks_done %d, shots_done %d, want 0", before.ChunksDone, before.ShotsDone)
		}
		for _, ev := range frames {
			if ev.ChunksDone != 0 || ev.Terminal {
				t.Fatalf("frame %+v before the retry, want none past the first", ev)
			}
		}
	}
	st := waitFor(t, m, spec.ID, completed)
	if n := calls(); n != 2*spec.ChunksTotal() {
		t.Errorf("%d chunk draws, want every chunk twice", n)
	}
	got, err := result(m, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("counts after the retry %v, unfaulted run %v", got, want)
	}
	chunks := 0
	for _, typ := range logTypes(t, dir) {
		if typ == recChunkRun {
			chunks++
		}
	}
	if chunks != 2*spec.ChunksTotal() {
		t.Errorf("log holds %d chunk records, want each chunk twice", chunks)
	}
	ctx, stop := testCtx()
	defer stop()
	if err := m.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := startManager(t, Config{Dir: dir})
	st2, err := m2.Get(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != st.State || st2.ChunksDone != st.ChunksDone || st2.ShotsDone != st.ShotsDone {
		t.Fatalf("replayed status %+v, want %+v", st2, st)
	}
	if got, err := result(m2, spec.ID); err != nil || !maps.Equal(got, want) {
		t.Fatalf("replayed counts %v (%v), want %v", got, err, want)
	}
}

// TestFaultWALSyncFailsThenCancel: a job cancelled while its failed last
// batch waits to be drawn again reads cancelled, and so does its replay,
// although the failed batch left a completed record in the log.
func TestFaultWALSyncFailsThenCancel(t *testing.T) {
	provider, open, _ := gated(fakeSampler{4})
	defer open()
	dir, reg := t.TempDir(), obs.NewRegistry()
	m := startClockManager(t, Config{Dir: dir, Metrics: reg, Snapshot: provider}, true)
	spec := testSpec("jsynccancel", 800, 100)
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable("job.wal.sync:err@1", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	open()
	for reg.Counter("job_wal_errors_total").Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(spec.ID); err != nil {
		t.Fatal(err)
	}
	switch st := waitFor(t, m, spec.ID, func(s Status) bool { return s.State.Terminal() }); st.State {
	case StateCompleted:
		t.Skip("the retried batch completed before the cancel landed")
	case StateCancelled:
	default:
		t.Fatalf("cancelled job settled as %s", st.State)
	}
	ctx, stop := testCtx()
	defer stop()
	if err := m.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	m2 := startManager(t, Config{Dir: dir})
	if st, err := m2.Get(spec.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("replayed %+v, %v; want cancelled", st, err)
	}
}

// TestFaultChunkSampleErr injects a failure at the chunk-sampling point:
// an unclassified chunk error is a deterministic verdict, so the job must
// fail terminally (code "internal"), never spin in retries.
func TestFaultChunkSampleErr(t *testing.T) {
	if err := fault.Enable("job.chunk.sample:err@1", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	m := startManager(t, Config{Dir: t.TempDir()})
	st, err := m.Submit(testSpec("jcs", 100, 50))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitFor(t, m, st.ID, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateFailed || final.ErrorCode != "internal" {
		t.Fatalf("state=%s code=%q, want failed/internal", final.State, final.ErrorCode)
	}
}

// TestReplayIgnoresGarbageRecords replays a WAL salted with structurally
// valid frames carrying nonsense payloads — malformed JSON, chunks for
// unknown jobs, out-of-range chunk indices, a non-terminal state record, a
// checkpoint for a ghost job, and chunks and a checkpoint whose counts no
// 4-qubit job could have drawn in the shots they cover — and requires
// replay to keep exactly the coherent subset.
func TestReplayIgnoresGarbageRecords(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 0)
	good := testSpec("jok", 100, 50)
	records := []Record{
		mustRecord(recSubmit, good),
		{Type: recSubmit, Payload: []byte(`{"id":`)},                                 // malformed JSON
		{Type: recSubmit, Payload: []byte(`{"id":"jbad"}`)},                          // fails Validate
		mustRecord(recChunkJSON, chunkRecord{ID: "ghost", Chunk: 0, Shots: 50}),      // unknown job
		mustRecord(recChunkJSON, chunkRecord{ID: "jok", Chunk: 99, Shots: 50}),       // out of range
		mustRecord(recChunkJSON, chunkRecord{ID: "jok", Chunk: -1, Shots: 50}),       // negative
		mustRecord(recState, stateRecord{ID: "jok", State: StateRunning}),            // non-terminal state
		mustRecord(recState, stateRecord{ID: "ghost", State: StateFailed}),           // unknown job
		mustRecord(recCheckpointJSON, checkpointRecord{ID: "ghost", Done: []int{0}}), // unknown job
		{Type: 200, Payload: []byte(`{}`)},                                           // unknown record type
		mustRecord(recChunkJSON, chunkRecord{ID: "jok", Chunk: 1, Shots: 50,
			Counts: map[string]int{"99999": 50}}), // key past the register
		mustRecord(recChunkJSON, chunkRecord{ID: "jok", Chunk: 1, Shots: 50,
			Counts: map[string]int{"3": 10}}), // short of its shots
		mustRecord(recChunkJSON, chunkRecord{ID: "jok", Chunk: 1, Shots: 50,
			Counts: map[string]int{"3": 60, "5": -10}}), // a negative count
		mustRecord(recChunkJSON, chunkRecord{ID: "jok", Chunk: 1, Shots: 40,
			Counts: map[string]int{"3": 40}}), // not the chunk's quota
		mustRecord(recCheckpointJSON, checkpointRecord{ID: "jok", Done: []int{1},
			Counts: map[string]int{"5": 49}}), // short of its chunks' shots
		mustRecord(recChunkJSON, chunkRecord{ID: "jok", Chunk: 0, Shots: 50,
			Counts: map[string]int{"3": 50}}), // the one real chunk
	}
	for _, rec := range records {
		if err := w.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	m := startManager(t, Config{Dir: dir})
	list := m.List()
	// Only jok survives; it resumes from its one replayed chunk and runs to
	// completion.
	if len(list) != 1 || list[0].ID != "jok" {
		t.Fatalf("replayed jobs = %+v, want exactly jok", list)
	}
	st := waitFor(t, m, "jok", completed)
	if st.ChunksRecovered != 1 {
		t.Fatalf("recovered %d chunks, want 1", st.ChunksRecovered)
	}
	counts, err := result(m, "jok")
	if err != nil {
		t.Fatal(err)
	}
	if counts["0011"] < 50 {
		t.Fatalf("replayed chunk's counts missing: %v", counts)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != good.Shots {
		t.Fatalf("result sums to %d shots, want %d: %v", total, good.Shots, counts)
	}
}

// TestReplayCompletedWithoutChunksFails: a WAL holding a submit and a
// completed state record but none of the job's chunks (what a build reads
// when a newer one wrote them in a record type it does not know) must never
// answer the job's result with empty counts. The job fails with
// result_lost, on this replay and again on the next.
func TestReplayCompletedWithoutChunksFails(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 0)
	for _, rec := range []Record{
		mustRecord(recSubmit, testSpec("jgone", 100, 50)),
		{Type: 200, Payload: []byte{1, 2, 3}}, // its chunks, in a type this build skips
		mustRecord(recState, stateRecord{ID: "jgone", State: StateCompleted}),
	} {
		if err := w.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		m := startManager(t, Config{Dir: dir})
		st, err := m.Get("jgone")
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed || st.ErrorCode != "result_lost" {
			t.Fatalf("run %d: state %s code %q, want failed result_lost", run, st.State, st.ErrorCode)
		}
		if counts, err := result(m, "jgone"); !errors.Is(err, ErrNotCompleted) {
			t.Fatalf("run %d: Result = %v, %v; want ErrNotCompleted", run, counts, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = m.Stop(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointSupersedesChunks replays submit + chunk + checkpoint and
// requires the checkpoint to replace, not merge with, the earlier chunk
// records.
func TestCheckpointSupersedesChunks(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 0)
	spec := testSpec("jcp", 200, 50) // 4 chunks
	for _, rec := range []Record{
		mustRecord(recSubmit, spec),
		mustRecord(recChunkJSON, chunkRecord{ID: "jcp", Chunk: 0, Shots: 50, Counts: map[string]int{"1": 50}}),
		mustRecord(recChunkJSON, chunkRecord{ID: "jcp", Chunk: 1, Shots: 50, Counts: map[string]int{"2": 50}}),
		// Compaction summary claiming only chunk 2: the authoritative state.
		mustRecord(recCheckpointJSON, checkpointRecord{ID: "jcp", Done: []int{2, 2, 99},
			Counts: map[string]int{"5": 50}}),
	} {
		if err := w.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	m := startManager(t, Config{Dir: dir})
	st, err := m.Get("jcp")
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksRecovered != 1 || st.ShotsDone < 50 {
		t.Fatalf("checkpoint not authoritative: %+v", st)
	}
	final := waitFor(t, m, "jcp", completed)
	if final.ChunksExecuted != 3 {
		t.Fatalf("executed %d chunks after checkpoint replay, want 3", final.ChunksExecuted)
	}
}

// TestTerminalRetention bounds the terminal ring: with RetainTerminal n,
// only the n most recent settled jobs stay queryable.
func TestTerminalRetention(t *testing.T) {
	m := startManager(t, Config{Dir: t.TempDir(), RetainTerminal: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := m.Submit(testSpec(NewID(), 100, 100))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitFor(t, m, st.ID, completed)
		ids = append(ids, st.ID)
	}
	for _, id := range ids[:2] {
		if _, err := m.Get(id); err == nil {
			t.Errorf("evicted job %s still queryable", id)
		}
	}
	for _, id := range ids[2:] {
		if _, err := m.Get(id); err != nil {
			t.Errorf("retained job %s lost: %v", id, err)
		}
	}
	if got := len(m.List()); got != 2 {
		t.Fatalf("List has %d jobs, want 2", got)
	}
}

func testCtx() (ctx context.Context, cancel context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

// TestFaultCancelCommitWindow pins the cancel/commit race: commitChunk holds
// the manager mutex across the WAL append, so a Cancel issued mid-run queues
// on the mutex and often wakes in the window where the worker has committed
// its chunk but not yet cleared the in-flight flag. The flag then points at
// an already-finished chunk, the context cancellation is a no-op, and — since
// the scheduler never picks a cancel-requested job — the job would stay
// "running" forever unless the worker finishes the transition when it clears
// the flag. The latency fault stretches every WAL append so the window is
// hit reliably; every iteration must settle terminal.
func TestFaultCancelCommitWindow(t *testing.T) {
	if err := fault.Enable("job.wal.write:latency(3ms)", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	m := startManager(t, Config{Dir: t.TempDir(), Workers: 2})
	for i := 0; i < 20; i++ {
		st, err := m.Submit(testSpec(NewID(), 400, 50)) // 8 quick chunks
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitFor(t, m, st.ID, func(s Status) bool {
			return s.ChunksDone >= 1 || s.State.Terminal()
		})
		if _, err := m.Cancel(st.ID); err != nil {
			t.Fatalf("Cancel %d: %v", i, err)
		}
		final := waitFor(t, m, st.ID, func(s Status) bool { return s.State.Terminal() })
		if final.State != StateCancelled && final.State != StateCompleted {
			t.Fatalf("iteration %d settled as %s", i, final.State)
		}
	}
}

// TestFaultSamplerWalkPanicFailsOneJob: a job chunk is drawn by core's one
// chunk body, so it passes the sampler.walk hook and its panic recovery. An
// injected walker panic while two jobs run fails the job whose chunk it hit
// as an internal error; the other job completes, and the manager keeps
// running jobs after it.
func TestFaultSamplerWalkPanicFailsOneJob(t *testing.T) {
	if err := fault.Enable("sampler.walk:panic@5", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	m := startManager(t, Config{Workers: 2, Snapshot: fakeProvider(4, time.Millisecond)})
	ids := []string{"jwa", "jwb"}
	for _, id := range ids {
		if _, err := m.Submit(testSpec(id, 1000, 100)); err != nil { // one hook hit per chunk
			t.Fatalf("Submit %s: %v", id, err)
		}
	}
	states := map[State]int{}
	for _, id := range ids {
		st := waitFor(t, m, id, func(s Status) bool { return s.State.Terminal() })
		states[st.State]++
		if st.State == StateFailed && (st.ErrorCode != "internal" || !strings.Contains(st.Error, fault.SamplerWalk)) {
			t.Errorf("job %s failed with %q: %s, want internal naming %s", id, st.ErrorCode, st.Error, fault.SamplerWalk)
		}
	}
	if states[StateFailed] != 1 || states[StateCompleted] != 1 {
		t.Fatalf("terminal states %v, want one failed and one completed", states)
	}
	if _, err := m.Submit(testSpec("jwc", 300, 100)); err != nil {
		t.Fatalf("Submit after the panic: %v", err)
	}
	waitFor(t, m, "jwc", completed)
}
