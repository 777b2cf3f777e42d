package job

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openTestWAL(t *testing.T, dir string, maxSeg int64) (*wal, []Record, bool) {
	t.Helper()
	w, recs, salvaged, err := openWAL(dir, maxSeg)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	return w, recs, salvaged
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
	// The reopened log must accept further appends (O_APPEND on the tail).
	if err := w2.append(Record{Type: recChunkJSON, Payload: []byte(`{"id":"j1","chunk":1}`)}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestWALTornTail simulates a crash mid-append: a partial final frame must be
// truncated away and every complete record before it preserved.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 0)
	for i := 0; i < 3; i++ {
		if err := w.append(Record{Type: recChunkJSON, Payload: []byte(`{"chunk":true}`)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	seg := filepath.Join(dir, segName(w.seq))
	goodSize := w.size
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Append half a frame: a plausible header promising more bytes than exist.
	full := encodeFrame(Record{Type: recChunkJSON, Payload: []byte(`{"torn":true}`)})
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
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
	if len(recs) != 3 {
		t.Errorf("replayed %d records, want 3", len(recs))
	}
	if fi, err := os.Stat(seg); err != nil {
		t.Errorf("tail segment gone: %v", err)
	} else if fi.Size() != goodSize {
		t.Errorf("tail segment size %d after truncation, want %d", fi.Size(), goodSize)
	}
	// And the log keeps working from the truncation point.
	if err := w2.append(Record{Type: recState, Payload: []byte(`{}`)}); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
}

// TestWALCorruptQuarantine flips a byte inside an early record: the segment
// must be quarantined (renamed .corrupt), the valid prefix salvaged.
func TestWALCorruptQuarantine(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 0)
	for i := 0; i < 4; i++ {
		if err := w.append(Record{Type: recChunkJSON, Payload: []byte(`{"n":123456}`)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	seg := filepath.Join(dir, segName(w.seq))
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the payload of the second record (offset past the first frame).
	frameLen := len(encodeFrame(Record{Type: recChunkJSON, Payload: []byte(`{"n":123456}`)}))
	data[frameLen+10] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, salvaged := openTestWAL(t, dir, 0)
	defer w2.close()
	if !salvaged {
		t.Error("corruption not reported as salvaged")
	}
	if len(recs) != 1 {
		t.Errorf("salvaged %d records, want 1 (the valid prefix)", len(recs))
	}
	entries, _ := os.ReadDir(dir)
	var corrupt int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), corruptExt) {
			corrupt++
		}
	}
	if corrupt != 1 {
		t.Errorf("%d .corrupt files, want 1", corrupt)
	}
}

// TestWALRotation compacts into a fresh segment and deletes the old ones;
// replay of the compacted log yields exactly the snapshot.
func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir, 128) // tiny threshold
	for i := 0; i < 10; i++ {
		if err := w.append(Record{Type: recChunkJSON, Payload: []byte(`{"filler":"xxxxxxxxxxxxxxxx"}`)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if !w.needsRotate() {
		t.Fatal("expected rotation to be due")
	}
	snapshot := []Record{
		{Type: recSubmit, Payload: []byte(`{"id":"j9"}`)},
		{Type: recCheckpointJSON, Payload: []byte(`{"id":"j9","done":[0,1]}`)},
	}
	if err := w.rotate(snapshot); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if got := w.segments(); got != 1 {
		t.Errorf("%d segments after rotation, want 1", got)
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2, recs, salvaged := openTestWAL(t, dir, 128)
	defer w2.close()
	if salvaged {
		t.Error("rotated log reported salvaged")
	}
	if len(recs) != len(snapshot) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(snapshot))
	}
	for i := range snapshot {
		if recs[i].Type != snapshot[i].Type || !bytes.Equal(recs[i].Payload, snapshot[i].Payload) {
			t.Errorf("record %d mismatch after rotation", i)
		}
	}
}

func TestScanSegmentOversizedLength(t *testing.T) {
	// A frame header promising an absurd payload is corruption, not an
	// allocation request.
	frame := encodeFrame(Record{Type: recChunkJSON, Payload: []byte("x")})
	frame[0], frame[1], frame[2], frame[3] = 0xFF, 0xFF, 0xFF, 0x7F
	res := scanSegment(frame)
	if !res.corrupt {
		t.Error("oversized length not flagged corrupt")
	}
}
