package job

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

func openTestWAL(t *testing.T, dir string, threshold int64) (*wal, []Record, bool) {
	t.Helper()
	w, recs, salvaged, err := openWAL(dir, threshold)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	return w, recs, salvaged
}

// append writes one record and syncs the log, as a lone record is
// committed.
func (w *wal) append(rec Record) error {
	if err := w.write(rec); err != nil {
		return err
	}
	return w.sync()
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, salvaged := openTestWAL(t, dir, 0)
	if len(recs) != 0 || salvaged {
		t.Fatalf("fresh log: records=%d salvaged=%v", len(recs), salvaged)
	}
	want := []Record{
		{Type: recSubmit, Payload: []byte(`{"id":"j1"}`)},
		{Type: recChunkJSON, Payload: []byte(`{"id":"j1","chunk":0}`)},
		{Type: recState, Payload: []byte(`{"id":"j1","state":"completed"}`)},
	}
	for _, rec := range want {
		if err := w.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2, got, salvaged := openTestWAL(t, dir, 0)
	defer w2.close()
	if salvaged {
		t.Fatal("clean log reported salvaged")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("record %d: got %d/%q, want %d/%q",
				i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
	// The reopened log must accept further appends (O_APPEND on the log).
	if err := w2.append(Record{Type: recChunkJSON, Payload: []byte(`{"id":"j1","chunk":1}`)}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// writeLegacyStore writes recs as a store of the older layout: numbered
// segment files, the records split between the first two.
func writeLegacyStore(t *testing.T, dir string, recs ...Record) {
	t.Helper()
	var segs [2][]byte
	for i, rec := range recs {
		segs[i*2/len(recs)] = append(segs[i*2/len(recs)], encodeFrame(rec)...)
	}
	for i, seg := range segs {
		name := filepath.Join(dir, []string{"wal-00000001.jlog", "wal-00000002.jlog"}[i])
		if err := os.WriteFile(name, seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirFiles lists dir's file names.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// requireOneLog fails unless dir holds the log file and nothing else.
func requireOneLog(t *testing.T, dir string) {
	t.Helper()
	if names := dirFiles(t, dir); !slices.Equal(names, []string{logName}) {
		t.Fatalf("jobs directory holds %v, want only %s", names, logName)
	}
}

func requireRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got %d/%q, want %d/%q",
				i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
}

// TestWALTornTail simulates a crash mid-append: a partial final frame is
// dropped, every complete record before it is kept, and the log takes
// appends again once compacted.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 0)
	rec := Record{Type: recChunkJSON, Payload: []byte(`{"chunk":true}`)}
	for i := 0; i < 3; i++ {
		if err := w.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Append half a frame: a plausible header promising more bytes than exist.
	full := encodeFrame(Record{Type: recChunkJSON, Payload: []byte(`{"torn":true}`)})
	f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, recs, salvaged := openTestWAL(t, dir, 0)
	defer w2.close()
	if !salvaged {
		t.Error("torn tail not reported as salvaged")
	}
	requireRecords(t, recs, []Record{rec, rec, rec})
	if err := w2.compact(recs); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// A torn append is not damage: nothing is quarantined.
	requireOneLog(t, dir)
	if err := w2.append(Record{Type: recState, Payload: []byte(`{}`)}); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	if fi, err := os.Stat(w2.path); err != nil || fi.Size() != w2.size {
		t.Fatalf("log size %v (%v), want %d", fi.Size(), err, w2.size)
	}
}

// TestWALCorruptQuarantine flips a byte inside an early record: the valid
// prefix is salvaged, the damaged log stays in place until the compaction
// replaces it, and its bytes outlive that under a .corrupt name. A second
// quarantine does not overwrite the first.
func TestWALCorruptQuarantine(t *testing.T) {
	dir := t.TempDir()
	rec := Record{Type: recChunkJSON, Payload: []byte(`{"n":123456}`)}
	frameLen := len(encodeFrame(rec))
	var damaged [][]byte
	for round := 0; round < 2; round++ {
		// Round 1 opens round 0's compacted log, one record long.
		w, _, _ := openTestWAL(t, dir, 0)
		for i := 0; i < 4-round; i++ {
			if err := w.append(rec); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		data, err := os.ReadFile(w.path)
		if err != nil {
			t.Fatal(err)
		}
		// Damage the payload of the second record (offset past the first frame).
		data[frameLen+10] ^= 0xFF
		if err := os.WriteFile(w.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged = append(damaged, data)

		w2, recs, salvaged := openTestWAL(t, dir, 0)
		if !salvaged {
			t.Error("corruption not reported as salvaged")
		}
		requireRecords(t, recs, []Record{rec})
		if got, _ := os.ReadFile(w2.path); !bytes.Equal(got, data) {
			t.Fatal("the damaged log changed before its compaction")
		}
		if err := w2.compact(recs); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := w2.close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range damaged {
		name := filepath.Join(dir, logName+"."+string(rune('1'+i))+corruptExt)
		if got, err := os.ReadFile(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("quarantine %d: %v; bytes kept: %v", i+1, err, bytes.Equal(got, want))
		}
	}
	if names := dirFiles(t, dir); len(names) != 3 {
		t.Fatalf("jobs directory holds %v, want the log and two quarantines", names)
	}
}

// TestWALCompaction replaces the log with a snapshot once it is due;
// replay of the compacted log yields exactly the snapshot.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 128) // tiny threshold
	for i := 0; i < 10; i++ {
		if err := w.append(Record{Type: recChunkJSON, Payload: []byte(`{"filler":"xxxxxxxxxxxxxxxx"}`)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if !w.needsCompact() {
		t.Fatal("expected compaction to be due")
	}
	snapshot := []Record{
		{Type: recSubmit, Payload: []byte(`{"id":"j9"}`)},
		{Type: recCheckpointJSON, Payload: []byte(`{"id":"j9","done":[0,1]}`)},
	}
	if err := w.compact(snapshot); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if w.needsCompact() {
		t.Fatal("compaction still due right after one")
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	requireOneLog(t, dir)

	w2, recs, salvaged := openTestWAL(t, dir, 128)
	defer w2.close()
	if salvaged {
		t.Error("compacted log reported salvaged")
	}
	requireRecords(t, recs, snapshot)
}

// TestWALStrayTempIgnored: a compaction interrupted before its rename
// leaves a temp file beside the log. The next open removes it and replays
// the old log unchanged.
func TestWALStrayTempIgnored(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 0)
	want := []Record{
		{Type: recSubmit, Payload: []byte(`{"id":"j1"}`)},
		{Type: recState, Payload: []byte(`{"id":"j1","state":"completed"}`)},
	}
	for _, rec := range want {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	// What a compaction leaves when the process dies mid-write: the
	// temp file, holding the start of a different state.
	stray := filepath.Join(dir, logName+".4242.tmp")
	partial := encodeFrame(Record{Type: recSubmit, Payload: []byte(`{"id":"j2"}`)})
	if err := os.WriteFile(stray, partial[:len(partial)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, salvaged := openTestWAL(t, dir, 0)
	defer w2.close()
	if salvaged {
		t.Error("a stray temp file made the log salvaged")
	}
	requireRecords(t, recs, want)
	requireOneLog(t, dir)
	if after, _ := os.ReadFile(w2.path); !bytes.Equal(after, before) {
		t.Fatal("the log changed on open")
	}
}

// TestWALImportsLegacySegments: a store of the older layout replays its
// segments in name order and is salvaged; its segments go only once the
// compaction is durable. The directory's name is no pattern.
func TestWALImportsLegacySegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs[1]")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Type: recSubmit, Payload: []byte(`{"id":"j1"}`)},
		{Type: recChunkJSON, Payload: []byte(`{"id":"j1","chunk":0}`)},
		{Type: recChunkJSON, Payload: []byte(`{"id":"j1","chunk":1}`)},
		{Type: recState, Payload: []byte(`{"id":"j1","state":"completed"}`)},
	}
	writeLegacyStore(t, dir, want...)
	w, recs, salvaged := openTestWAL(t, dir, 0)
	if !salvaged {
		t.Error("an older-layout store was not reported as salvaged")
	}
	requireRecords(t, recs, want)
	if names := dirFiles(t, dir); len(names) != 2 {
		t.Fatalf("open changed the older-layout store: %v", names)
	}
	if err := w.compact(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	requireOneLog(t, dir)
	w2, recs, salvaged := openTestWAL(t, dir, 0)
	defer w2.close()
	if salvaged {
		t.Error("the imported store was salvaged again")
	}
	requireRecords(t, recs, want)
}

func TestScanLogOversizedLength(t *testing.T) {
	// A frame header promising an absurd payload is corruption, not an
	// allocation request.
	frame := encodeFrame(Record{Type: recChunkJSON, Payload: []byte("x")})
	frame[0], frame[1], frame[2], frame[3] = 0xFF, 0xFF, 0xFF, 0x7F
	res := scanLog(frame)
	if !res.corrupt || res.end != 0 {
		t.Errorf("oversized length: corrupt %v end %d, want corrupt at 0", res.corrupt, res.end)
	}
}

// buildLog frames records cut from in: each record takes in's next byte as
// its type and as its payload length (mod 24), then that many bytes. It
// returns the log and each frame's offset.
func buildLog(in []byte) (log []byte, starts []int) {
	for len(in) > 0 {
		n := min(int(in[0])%24, len(in)-1)
		starts = append(starts, len(log))
		log = append(log, encodeFrame(Record{Type: in[0], Payload: in[1 : 1+n]})...)
		in = in[1+n:]
	}
	return log, starts
}

// FuzzScanLog feeds the log scanner byte soup and mangled valid logs. The
// scanner never panics; the records it keeps re-encode to a prefix of its
// input; and the tail past them reads as torn exactly when it is shorter
// than the frame its header announces, and as corrupt otherwise, where that
// frame fails its check. A valid log with one bit flipped keeps exactly the
// frames before the flipped one; a valid log cut short is never corrupt.
func FuzzScanLog(f *testing.F) {
	valid, _ := buildLog([]byte("\x03abc\x05hello\x01x"))
	f.Add([]byte("byte soup"), false, uint32(0), uint8(0))
	f.Add(valid, false, uint32(0), uint8(0))
	f.Add([]byte("\x03abc\x05hello\x01x"), true, uint32(30), uint8(2))
	f.Add([]byte("\x03abc\x05hello\x01x"), true, uint32(21), uint8(8))
	f.Add([]byte("\x03abc\x05hello\x01x"), true, uint32(1), uint8(7))
	f.Fuzz(func(t *testing.T, in []byte, build bool, at uint32, bit uint8) {
		data, starts := in, []int(nil)
		mangled := -1 // the frame a flip lands in
		if build {
			data, starts = buildLog(in)
			if len(data) == 0 {
				return
			}
			pos := int(at % uint32(len(data)))
			if bit < 8 {
				data[pos] ^= 1 << bit
				mangled = sort.SearchInts(starts, pos+1) - 1
			} else {
				data = data[:pos]
			}
		}
		res := scanLog(data)
		var again []byte
		for _, rec := range res.records {
			again = append(again, encodeFrame(rec)...)
		}
		if !bytes.Equal(again, data[:res.end]) {
			t.Fatalf("kept records re-encode to %x, not the input's prefix %x", again, data[:res.end])
		}
		tail := data[res.end:]
		torn := len(tail) < frameOverhead
		if !torn {
			plen := int(binary.LittleEndian.Uint32(tail))
			torn = plen <= maxRecordBytes && len(tail) < frameOverhead+plen
			if !torn && plen <= maxRecordBytes {
				frame := tail[:frameOverhead+plen]
				if bytes.Equal(encodeFrame(Record{Type: frame[6], Payload: frame[7 : 7+plen]}), frame) {
					t.Fatalf("scan stopped at a frame that checks out: %x", frame)
				}
			}
		}
		if want := len(tail) > 0 && !torn; res.corrupt != want {
			t.Fatalf("tail %x: corrupt %v, want %v", tail, res.corrupt, want)
		}
		switch {
		case mangled >= 0:
			if len(res.records) != mangled || res.end != starts[mangled] {
				t.Fatalf("a flip in frame %d kept %d records up to %d, want frames up to %d",
					mangled, len(res.records), res.end, starts[mangled])
			}
		case build && res.corrupt:
			t.Fatalf("a cut log read as corrupt at %d", res.end)
		}
	})
}
