package job

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"weaksim/internal/core"
	"weaksim/internal/rng"
)

// preStampSubmit is a submit record as written before specs carried the
// walk stamp: the same fields, no "walk".
func preStampSubmit(id string, shots, chunk int) Record {
	return Record{Type: recSubmit, Payload: []byte(`{"id":"` + id + `","key":"k-` + id +
		`","circuit":"ghz","qubits":4,"shots":` + strconv.Itoa(shots) + `,"seed":42,"chunk_shots":` + strconv.Itoa(chunk) +
		`,"norm":"sum","priority":1,"tenant":"t","created_unix_ms":1}`)}
}

// TestPreStampWALJobs replays a WAL written before the walk stamp, in the
// older segmented layout. Its unfinished job holds one chunk drawn under
// the old walk: it must end failed with config_changed, without that chunk
// merged and without any chunk drawn. Its completed job keeps its result,
// and the store is left as the one log.
func TestPreStampWALJobs(t *testing.T) {
	dir := t.TempDir()
	writeLegacyStore(t, dir,
		preStampSubmit("jold", 100, 50),
		mustRecord(recChunkJSON, chunkRecord{ID: "jold", Chunk: 0, Shots: 50, Counts: map[string]int{"3": 50}}),
		preStampSubmit("jdone", 100, 50),
		mustRecord(recChunkJSON, chunkRecord{ID: "jdone", Chunk: 0, Shots: 50, Counts: map[string]int{"3": 50}}),
		mustRecord(recChunkJSON, chunkRecord{ID: "jdone", Chunk: 1, Shots: 50, Counts: map[string]int{"12": 50}}),
		mustRecord(recState, stateRecord{ID: "jdone", State: StateCompleted}),
	)

	var drawn atomic.Int64
	provider := func(ctx context.Context, spec Spec) (core.Sampler, error) {
		drawn.Add(1)
		return fakeSampler{4}, nil
	}
	check := func(m *Manager) {
		t.Helper()
		st, err := m.Get("jold")
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed || st.ErrorCode != "config_changed" {
			t.Fatalf("pre-stamp job: state %s code %q, want failed config_changed", st.State, st.ErrorCode)
		}
		if st.ChunksDone != 0 || st.ShotsDone != 0 || st.ChunksExecuted != 0 {
			t.Fatalf("pre-stamp job kept or drew chunks: %+v", st)
		}
		if _, _, err := m.Result("jold"); !errors.Is(err, ErrNotCompleted) {
			t.Fatalf("pre-stamp job result: %v, want ErrNotCompleted", err)
		}
		got, err := result(m, "jdone")
		if err != nil {
			t.Fatal(err)
		}
		if want := map[string]int{"0011": 50, "1100": 50}; !maps.Equal(got, want) {
			t.Fatalf("completed pre-stamp job's result %v, want %v", got, want)
		}
	}
	m := startManager(t, Config{Dir: dir, Snapshot: provider})
	check(m)
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireOneLog(t, dir)
	// The verdict is durable: a second replay reads it back.
	check(startManager(t, Config{Dir: dir, Snapshot: provider}))
	if n := drawn.Load(); n != 0 {
		t.Fatalf("snapshot resolved %d times for pre-stamp jobs, want 0", n)
	}
}

// TestWalkOneWALJobFailsConfigChanged replays a WAL whose unfinished job
// was submitted, with one chunk drawn, under walk version 1, the per-shot
// decoder that preceded the binomial split: the job ends failed with
// config_changed, the old chunk is not merged and no chunk is drawn.
func TestWalkOneWALJobFailsConfigChanged(t *testing.T) {
	if core.WalkVersion == 1 {
		t.Fatal("walk version 1 is current")
	}
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 0)
	submit := preStampSubmit("jwalk1", 100, 50)
	submit.Payload = []byte(strings.Replace(string(submit.Payload), `"priority"`, `"walk":1,"priority"`, 1))
	for _, rec := range []Record{
		submit,
		mustRecord(recChunkJSON, chunkRecord{ID: "jwalk1", Chunk: 0, Shots: 50, Counts: map[string]int{"3": 50}}),
	} {
		if err := w.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	var drawn atomic.Int64
	provider := func(ctx context.Context, spec Spec) (core.Sampler, error) {
		drawn.Add(1)
		return fakeSampler{4}, nil
	}
	m := startManager(t, Config{Dir: dir, Snapshot: provider})
	st, err := m.Get("jwalk1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.ErrorCode != "config_changed" {
		t.Fatalf("walk-1 job: state %s code %q, want failed config_changed", st.State, st.ErrorCode)
	}
	if st.ChunksDone != 0 || st.ShotsDone != 0 || st.ChunksExecuted != 0 || drawn.Load() != 0 {
		t.Fatalf("walk-1 job kept or drew chunks: %+v, %d snapshot resolutions", st, drawn.Load())
	}
}

// TestSubmitStampsWalk: Submit persists this binary's core.WalkVersion in
// the submit record whatever the caller put in Spec.Walk.
func TestSubmitStampsWalk(t *testing.T) {
	dir := t.TempDir()
	m := startManager(t, Config{Dir: dir})
	spec := testSpec("jstamp", 100, 50)
	spec.Walk = core.WalkVersion + 7
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, "jstamp", completed)
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	w, recs, _ := openTestWAL(t, dir, 0)
	defer w.close()
	for _, rec := range recs {
		if rec.Type != recSubmit {
			continue
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(rec.Payload, &fields); err != nil {
			t.Fatal(err)
		}
		if got, want := string(fields["walk"]), strconv.Itoa(core.WalkVersion); got != want {
			t.Fatalf("submit record %s: walk %q, want %s", rec.Payload, got, want)
		}
		return
	}
	t.Fatal("no submit record in the WAL")
}

// TestNormFieldWALJobResumes replays a WAL written while specs still
// carried "norm", in the older segmented layout: the submit record is
// hand-written in that shape, with one chunk committed. The job resumes,
// draws only the chunks it lacks, and finishes with the counts an
// uninterrupted run of the same spec returns; the store is left as the one
// log.
func TestNormFieldWALJobResumes(t *testing.T) {
	spec := testSpec("jnorm", 400, 100)
	want := map[string]int{}
	for i := 0; i < spec.ChunksTotal(); i++ {
		for idx, n := range core.Counts(fakeSampler{4}, rng.Stream(spec.Seed, i), spec.ChunkShotCount(i)) {
			want[core.FormatBits(idx, 4)] += n
		}
	}
	chunk0 := map[string]int{}
	for idx, n := range core.Counts(fakeSampler{4}, rng.Stream(spec.Seed, 0), spec.ChunkShotCount(0)) {
		chunk0[strconv.FormatUint(idx, 10)] = n
	}

	dir := t.TempDir()
	writeLegacyStore(t, dir,
		Record{Type: recSubmit, Payload: []byte(`{"id":"jnorm","key":"k-jnorm","circuit":"ghz","qubits":4,"shots":400,` +
			`"seed":42,"chunk_shots":100,"norm":"sum","walk":` + strconv.Itoa(core.WalkVersion) +
			`,"priority":1,"tenant":"t","created_unix_ms":1}`)},
		mustRecord(recChunkJSON, chunkRecord{ID: "jnorm", Chunk: 0, Shots: 100, Counts: chunk0}),
	)

	m := startManager(t, Config{Dir: dir})
	st := waitFor(t, m, "jnorm", completed)
	if st.ChunksRecovered != 1 || st.ChunksExecuted != 3 || st.ShotsDone != 400 {
		t.Fatalf("resumed job: recovered %d executed %d shots %d, want 1, 3, 400",
			st.ChunksRecovered, st.ChunksExecuted, st.ShotsDone)
	}
	got, err := result(m, "jnorm")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("resumed result %v, uninterrupted reference %v", got, want)
	}
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireOneLog(t, dir)
}
