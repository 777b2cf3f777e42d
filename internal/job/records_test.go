package job

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"weaksim/internal/algo"
	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/sim"
)

// pairsOf lists a tally's ascending (index, count) pairs.
func pairsOf(t *core.Tally) [][2]uint64 {
	var out [][2]uint64
	t.Ascending(func(idx uint64, n int) { out = append(out, [2]uint64{idx, uint64(n)}) })
	return out
}

// jsonCounts is a tally as the JSON records of older builds spelled it:
// decimal index keys.
func jsonCounts(t *core.Tally) map[string]int {
	out := map[string]int{}
	t.Ascending(func(idx uint64, n int) { out[strconv.FormatUint(idx, 10)] = n })
	return out
}

// uvarints spells a run record by hand: id, then each value as a uvarint.
func uvarints(id string, vals ...uint64) []byte {
	b := appendID(nil, id)
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// runTallies are tallies in every shape a job writes: a dense chunk, a one-
// run chunk, a job's merged runs that share outcomes, and nothing at all.
func runTallies() map[string]struct {
	tally  *core.Tally
	qubits int
	shots  int
} {
	dense, err := core.TallyChunk(context.Background(), fakeSampler{4}, 9, 0, 100)
	if err != nil {
		panic(err)
	}
	one := core.TallyRun([]uint64{0, 1, 300, 1 << 40, 1<<64 - 1}, []uint32{1, 200, 3, 70000, 1})
	merged := core.TallyRun([]uint64{2, 5, 9}, []uint32{1, 2, 3})
	merged.Add(core.TallyRun([]uint64{5, 6, 9, 1 << 20}, []uint32{4, 5, 6, 7}))
	return map[string]struct {
		tally  *core.Tally
		qubits int
		shots  int
	}{
		"dense":  {dense, 4, 100},
		"one":    {one, 64, 70205},
		"merged": {merged, 21, 28},
		"empty":  {core.TallyRun(nil, nil), 3, 0},
	}
}

// TestRunRecordRoundTrip: chunk and checkpoint run records decode to the
// header and the ascending pairs they were written from, and re-encode to
// the same bytes.
func TestRunRecordRoundTrip(t *testing.T) {
	for name, tc := range runTallies() {
		for _, rec := range []Record{
			chunkRun("j"+name, 7, tc.shots, tc.tally),
			checkpointRun("j"+name, []int{0, 1, 5, 300}, tc.shots, tc.tally),
		} {
			h, err := readRunHead(rec.Type, rec.Payload)
			if err != nil {
				t.Fatalf("%s type %d: header: %v", name, rec.Type, err)
			}
			if h.id != "j"+name || h.shots != tc.shots {
				t.Fatalf("%s type %d: header %+v", name, rec.Type, h)
			}
			if rec.Type == recChunkRun && h.chunk != 7 || rec.Type == recCheckpointRun && !slices.Equal(h.done, []int{0, 1, 5, 300}) {
				t.Fatalf("%s type %d: chunk %d done %v", name, rec.Type, h.chunk, h.done)
			}
			got, err := decodeRun(h.pairs, tc.qubits, h.shots)
			if err != nil {
				t.Fatalf("%s type %d: pairs: %v", name, rec.Type, err)
			}
			if !slices.Equal(pairsOf(got), pairsOf(tc.tally)) {
				t.Fatalf("%s type %d: decoded %v, wrote %v", name, rec.Type, pairsOf(got), pairsOf(tc.tally))
			}
			again := chunkRun(h.id, h.chunk, h.shots, got)
			if rec.Type == recCheckpointRun {
				again = checkpointRun(h.id, h.done, h.shots, got)
			}
			if !bytes.Equal(again.Payload, rec.Payload) {
				t.Fatalf("%s type %d: re-encoded %x, want %x", name, rec.Type, again.Payload, rec.Payload)
			}
		}
	}
}

// TestRunRecordRefusals: every malformed run record is refused, at its
// header or at its pairs, each for its own reason.
func TestRunRecordRefusals(t *testing.T) {
	const qubits, shots = 4, 10
	pairs := func(vals ...uint64) []byte { return uvarints("", vals...)[1:] }
	for _, tc := range []struct {
		name  string
		pairs []byte
	}{
		{"an index past the register", pairs(16, 10)},
		{"a zero count", pairs(3, 0, 1, 10)},
		{"counts short of the shots", pairs(3, 4)},
		{"counts past the shots", pairs(3, 4, 1, 7)},
		{"a repeated index", pairs(3, 4, 0, 6)},
		{"a trailing byte", pairs(3, 10, 0)},
		{"a cut-off varint", append(pairs(3), 0x80)},
		{"a varint not in its shortest form", []byte{0x83, 0x00, 10}},
		{"a varint past 64 bits", append(bytes.Repeat([]byte{0xff}, 10), 1)},
		{"nothing at all", nil},
	} {
		if _, err := decodeRun(tc.pairs, qubits, shots); !errors.Is(err, errRun) {
			t.Errorf("%s: decodeRun err = %v, want a refusal", tc.name, err)
		}
	}
	if _, err := decodeRun(pairs(3, 4, 2, 6), qubits, shots); err != nil {
		t.Fatalf("the well-formed pairs: %v", err)
	}
	if _, err := decodeRun(pairs(1<<63, 5, 1<<63, 5), 64, shots); !errors.Is(err, errRun) {
		t.Errorf("an index past 2^64: err = %v, want a refusal", err)
	}
	if big := uint64(math.MaxUint32) + 1; strconv.IntSize == 64 {
		if _, err := decodeRun(nil, qubits, int(big)); !errors.Is(err, errRun) {
			t.Errorf("shots past a uint32 count: err = %v, want a refusal", err)
		}
	}

	for _, tc := range []struct {
		name string
		typ  uint8
		p    []byte
	}{
		{"an id cut short", recChunkRun, []byte{5, 'j', 'x'}},
		{"a chunk past MaxInt32", recChunkRun, uvarints("j", math.MaxInt32+1, 10)},
		{"shots past MaxUint32", recChunkRun, uvarints("j", 0, math.MaxUint32+1)},
		{"a header cut short", recChunkRun, uvarints("j", 0)},
		{"a repeated done chunk", recCheckpointRun, uvarints("j", 10, 2, 1, 0)},
		{"more done chunks than bytes", recCheckpointRun, uvarints("j", 10, 9, 1)},
	} {
		if _, err := readRunHead(tc.typ, tc.p); !errors.Is(err, errRun) {
			t.Errorf("%s: readRunHead err = %v, want a refusal", tc.name, err)
		}
	}
}

// replayOne applies recs to an in-memory manager holding spec's job and
// returns the job.
func replayOne(spec Spec, recs ...Record) *jobState {
	m := NewManager(Config{Snapshot: fakeProvider(spec.Qubits, 0)})
	m.addJobLocked(spec)
	for _, rec := range recs {
		m.applyLocked(rec)
	}
	return m.jobs[spec.ID]
}

// TestReplayRefusesMalformedRunRecords: a chunk or checkpoint run that is
// well formed but no job could have written — its shots are not its
// chunk's, or its done chunks are out of range or do not add up to its
// shots — leaves the job as it was.
func TestReplayRefusesMalformedRunRecords(t *testing.T) {
	spec := testSpec("jrun", 200, 50) // 4 chunks
	three := core.TallyRun([]uint64{3}, []uint32{50})
	for _, tc := range []struct {
		name string
		rec  Record
		want int // chunks done after replay
	}{
		{"a chunk", chunkRun("jrun", 1, 50, three), 1},
		{"a chunk of another job", chunkRun("jother", 1, 50, three), 0},
		{"a chunk with other shots", chunkRun("jrun", 1, 40, core.TallyRun([]uint64{3}, []uint32{40})), 0},
		{"a chunk out of range", chunkRun("jrun", 4, 50, three), 0},
		{"a checkpoint", checkpointRun("jrun", []int{0, 3}, 100, core.TallyRun([]uint64{3}, []uint32{100})), 2},
		{"a checkpoint with a chunk out of range", checkpointRun("jrun", []int{0, 4}, 50, three), 0},
		{"a checkpoint whose shots are not its chunks'", checkpointRun("jrun", []int{0, 3}, 50, three), 0},
		{"a chunk with a trailing byte", Record{Type: recChunkRun, Payload: append(chunkRun("jrun", 1, 50, three).Payload, 0)}, 0},
	} {
		j := replayOne(spec, tc.rec)
		if j.chunksDone != tc.want || j.shotsDone != 50*tc.want {
			t.Errorf("%s: %d chunks and %d shots done, want %d chunks", tc.name, j.chunksDone, j.shotsDone, tc.want)
		}
	}
}

// frozenSampler strong-simulates a named circuit and freezes it, as the
// daemon does under its default normalization.
func frozenSampler(tb testing.TB, name string) *core.FrozenSampler {
	tb.Helper()
	c, err := algo.Generate(name)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sim.NewDD(c, sim.WithManagerOptions(dd.WithNormalization(dd.NormL2Phase)))
	if err != nil {
		tb.Fatal(err)
	}
	state, err := s.Run()
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := s.Manager().Freeze(state)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := core.NewFrozenSampler(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// TestChunkRunRecordSize pins what a chunk record costs on disk: one
// 65,536-shot chunk of shor_33_2 (about 1,840 outcomes) takes at most a
// quarter of the bytes of its JSON record.
func TestChunkRunRecordSize(t *testing.T) {
	fs := frozenSampler(t, "shor_33_2")
	counts, err := core.TallyChunk(context.Background(), fs, 3, 0, DefaultChunkShots)
	if err != nil {
		t.Fatal(err)
	}
	id := NewID()
	run := len(encodeFrame(chunkRun(id, 0, DefaultChunkShots, counts)))
	legacy := len(encodeFrame(mustRecord(recChunkJSON, chunkRecord{ID: id, Chunk: 0, Shots: DefaultChunkShots, Counts: jsonCounts(counts)})))
	t.Logf("shor_33_2 chunk: %d outcomes, run record %d B, JSON record %d B", counts.Len(), run, legacy)
	if 4*run > legacy {
		t.Errorf("run record %d B is more than a quarter of the JSON record's %d B", run, legacy)
	}
}

// BenchmarkChunkRecord encodes and decodes one 65,536-shot chunk's record,
// as a run record and as the JSON record of older builds, for shor_33_2
// (about 1,840 outcomes) and qft_16 (about 41,000). It reports the record's
// payload bytes.
func BenchmarkChunkRecord(b *testing.B) {
	for _, name := range []string{"shor_33_2", "qft_16"} {
		fs := frozenSampler(b, name)
		counts, err := core.TallyChunk(context.Background(), fs, 3, 0, DefaultChunkShots)
		if err != nil {
			b.Fatal(err)
		}
		id, qubits := NewID(), fs.Qubits()
		encode := map[string]func() Record{
			"run": func() Record { return chunkRun(id, 0, DefaultChunkShots, counts) },
			"json": func() Record {
				return mustRecord(recChunkJSON, chunkRecord{ID: id, Shots: DefaultChunkShots, Counts: jsonCounts(counts)})
			},
		}
		decode := map[string]func(Record) error{
			"run": func(rec Record) error {
				h, err := readRunHead(rec.Type, rec.Payload)
				if err == nil {
					_, err = decodeRun(h.pairs, qubits, h.shots)
				}
				return err
			},
			"json": func(rec Record) error {
				var cr chunkRecord
				if err := json.Unmarshal(rec.Payload, &cr); err != nil {
					return err
				}
				_, err := decodeCounts(cr.Counts, qubits, cr.Shots)
				return err
			},
		}
		for _, form := range []string{"run", "json"} {
			b.Run(name+"/encode/"+form, func(b *testing.B) {
				var rec Record
				for i := 0; i < b.N; i++ {
					rec = encode[form]()
				}
				b.ReportMetric(float64(len(rec.Payload)), "B/record")
			})
			b.Run(name+"/decode/"+form, func(b *testing.B) {
				rec := encode[form]()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := decode[form](rec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestJSONRecordStoreResumes replays a store written before run records,
// in the older segmented layout: a JSON checkpoint and a JSON chunk
// record. The job finishes with the counts of an uninterrupted run, drawing
// only the chunks it lacked; the store is left as the one log, and it holds
// no JSON chunk or checkpoint record.
func TestJSONRecordStoreResumes(t *testing.T) {
	spec := testSpec("jlegacy", 400, 100) // 4 chunks
	want := map[string]int{}
	chunks := make([]*core.Tally, spec.ChunksTotal())
	for i := range chunks {
		var err error
		if chunks[i], err = core.TallyChunk(context.Background(), fakeSampler{4}, spec.Seed, i, spec.ChunkShotCount(i)); err != nil {
			t.Fatal(err)
		}
		for idx, n := range chunks[i].Map() {
			want[core.FormatBits(idx, 4)] += n
		}
	}
	merged := core.NewTally(4, 200)
	merged.Add(chunks[0])
	merged.Add(chunks[2])

	dir := t.TempDir()
	writeLegacyStore(t, dir,
		mustRecord(recSubmit, spec),
		mustRecord(recChunkJSON, chunkRecord{ID: spec.ID, Chunk: 1, Shots: 100, Counts: jsonCounts(chunks[1])}),
		mustRecord(recCheckpointJSON, checkpointRecord{ID: spec.ID, Done: []int{0, 2}, Counts: jsonCounts(merged)}),
	)

	m := startManager(t, Config{Dir: dir, SegmentBytes: 1})
	st := waitFor(t, m, spec.ID, completed)
	if st.ChunksRecovered != 2 || st.ChunksExecuted != 2 {
		t.Fatalf("recovered %d, executed %d chunks, want 2 and 2 (the checkpoint supersedes the chunk)",
			st.ChunksRecovered, st.ChunksExecuted)
	}
	got, err := result(m, spec.ID)
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
	w, recs, _ := openTestWAL(t, dir, 0)
	defer w.close()
	for _, rec := range recs {
		if rec.Type == recChunkJSON || rec.Type == recCheckpointJSON {
			t.Fatalf("record type %d survived compaction", rec.Type)
		}
	}
}

// TestRotationFollowsLiveState runs jobs whose retained results outgrow the
// compaction threshold many times over. Compaction keeps pace with the
// live state instead of firing on every commit once the compacted state
// alone passes the threshold, and the compacted log replays every retained
// result.
func TestRotationFollowsLiveState(t *testing.T) {
	const jobs, qubits = 24, 12
	dir := t.TempDir()
	m := startManager(t, Config{Dir: dir, SegmentBytes: 2048, Snapshot: fakeProvider(qubits, 0)})
	want := map[string]map[string]int{}
	for i := 0; i < jobs; i++ {
		spec := testSpec("jbig"+strconv.Itoa(i), 4096, 1024)
		spec.Qubits = qubits
		if _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
		waitFor(t, m, spec.ID, completed)
		var err error
		if want[spec.ID], err = result(m, spec.ID); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	compactions, live := m.w.compactions, m.w.compacted
	m.mu.Unlock()
	// 4 chunk commits per job: compacting on every commit past the
	// threshold would be nearly 4 × jobs compactions. Doubling from 2 KiB
	// to the live state takes about log2(live / 2 KiB).
	t.Logf("%d compactions over %d commits; last compaction wrote %d B", compactions, 4*jobs, live)
	if compactions < 1 || compactions > 12 {
		t.Fatalf("%d compactions over %d commits, want between 1 and 12", compactions, 4*jobs)
	}
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2 := startManager(t, Config{Dir: dir, SegmentBytes: 2048, Snapshot: fakeProvider(qubits, 0)})
	for id, counts := range want {
		got, err := result(m2, id)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, counts) {
			t.Fatalf("%s: replayed result differs from the one served before the restart", id)
		}
	}
}

// BenchmarkRetainedQFTJobs runs 20 1M-shot qft_16 jobs, each retained with
// its 65,536 outcomes, through one durable manager. Every compaction
// rewrites every retained result, so a store that compacts too often slows
// down as results pile up. It reports the median wall time of the first
// three and of the last three jobs (one job's time alone varies by half on
// a shared host), and fails when the last ones take more than 1.5× the
// first ones.
func BenchmarkRetainedQFTJobs(b *testing.B) {
	const jobs, ends = 20, 3
	fs := frozenSampler(b, "qft_16")
	provider := func(context.Context, Spec) (core.Sampler, error) { return fs, nil }
	took := make([]time.Duration, jobs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewManager(Config{Dir: b.TempDir(), Snapshot: provider})
		if err := m.Start(); err != nil {
			b.Fatal(err)
		}
		for k := range took {
			start := time.Now()
			st, err := m.Submit(Spec{Circuit: "qft_16", Key: "k", Qubits: 16, Shots: 1 << 20, Seed: uint64(k)})
			if err != nil {
				b.Fatal(err)
			}
			ch, cancel, err := m.Subscribe(st.ID)
			if err != nil {
				b.Fatal(err)
			}
			for ev := range ch {
				if ev.Terminal && ev.State != StateCompleted {
					b.Fatalf("job %d ended %s: %s", k, ev.State, ev.Error)
				}
			}
			cancel()
			took[k] = time.Since(start)
		}
		if err := m.Stop(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	median := func(d []time.Duration) time.Duration {
		d = slices.Clone(d)
		slices.Sort(d)
		return d[len(d)/2]
	}
	first, last := median(took[:ends]), median(took[jobs-ends:])
	b.ReportMetric(float64(first.Microseconds())/1e3, "first-ms")
	b.ReportMetric(float64(last.Microseconds())/1e3, "last-ms")
	b.ReportMetric(float64(last)/float64(first), "last/first")
	if last > first*3/2 {
		b.Errorf("the last %d jobs took %v (median), more than 1.5× the first %d's %v", ends, last, ends, first)
	}
}

// FuzzRunRecord feeds byte soup to the run record decoders, both kinds, at
// every register width. They never panic; whatever they accept re-encodes
// to the same bytes; a chunk record replays into its job exactly when it
// decodes, with counts of its shots over the job's register, and is refused
// otherwise. The same bytes, read as (index delta, count) steps, build a
// tally whose records decode back to it.
func FuzzRunRecord(f *testing.F) {
	for name, tc := range runTallies() {
		f.Add(false, uint8(tc.qubits), chunkRun("j"+name, 0, tc.shots, tc.tally).Payload)
		f.Add(true, uint8(tc.qubits), checkpointRun("j"+name, []int{0, 2}, tc.shots, tc.tally).Payload)
	}
	counts, _ := core.TallyChunk(context.Background(), fakeSampler{8}, 1, 0, 512)
	f.Add(false, uint8(8), chunkRun("jf", 3, 512, counts).Payload)
	f.Add(false, uint8(4), []byte{1, 'j', 0, 10, 0x83, 0x00, 10})
	f.Fuzz(func(t *testing.T, checkpoint bool, q uint8, p []byte) {
		qubits, typ := int(q%65), recChunkRun
		if checkpoint {
			typ = recCheckpointRun
		}
		h, err := readRunHead(typ, p)
		var tally *core.Tally
		if err == nil {
			tally, err = decodeRun(h.pairs, qubits, h.shots)
		}
		if err == nil {
			again := chunkRun(h.id, h.chunk, h.shots, tally)
			if checkpoint {
				again = checkpointRun(h.id, h.done, h.shots, tally)
			}
			if !bytes.Equal(again.Payload, p) {
				t.Fatalf("accepted %x, re-encoded %x", p, again.Payload)
			}
		}
		// Small shots keep a dense job tally small.
		if !checkpoint && h.id != "" && h.shots > 0 && h.shots <= 1<<12 && h.chunk < 64 {
			spec := Spec{ID: h.id, Circuit: "c", Qubits: qubits, Shots: (h.chunk + 1) * h.shots,
				ChunkShots: h.shots, Tenant: "t", Walk: core.WalkVersion}
			j := replayOne(spec, Record{Type: recChunkRun, Payload: p})
			if (j.chunksDone == 1) != (err == nil) {
				t.Fatalf("decode err %v, yet %d chunks replayed", err, j.chunksDone)
			}
			sum := 0
			j.counts.Ascending(func(idx uint64, n int) {
				if idx>>uint(qubits) != 0 {
					t.Fatalf("replayed index %d past %d qubits", idx, qubits)
				}
				sum += n
			})
			if sum != j.shotsDone || (err == nil) != (sum == h.shots) {
				t.Fatalf("replayed %d shots of %d, shotsDone %d, decode err %v", sum, h.shots, j.shotsDone, err)
			}
		}

		// Encode, then decode: a tally stepped out of p's bytes.
		var idx []uint64
		var ns []uint32
		at, shots := uint64(0), 0
		for i := 0; i+1 < len(p); i += 2 {
			if len(idx) > 0 {
				at += uint64(p[i]) + 1
			} else {
				at = uint64(p[i]) << 56
			}
			idx, ns = append(idx, at), append(ns, uint32(p[i+1])+1)
			shots += int(p[i+1]) + 1
		}
		built := core.TallyRun(idx, ns)
		rec := chunkRun("jbuilt", len(p), shots, built)
		if h, err = readRunHead(rec.Type, rec.Payload); err != nil || h.id != "jbuilt" || h.chunk != len(p) || h.shots != shots {
			t.Fatalf("built chunk header %+v: %v", h, err)
		}
		got, err := decodeRun(h.pairs, 64, shots)
		if err != nil || !slices.Equal(pairsOf(got), pairsOf(built)) {
			t.Fatalf("built tally decoded to %v (%v), want %v", pairsOf(got), err, pairsOf(built))
		}
	})
}
