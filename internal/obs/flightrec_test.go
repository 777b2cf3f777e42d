package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestFlightRecorderRingWraps(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Record(SpanRecord{Kind: "event", Name: fmt.Sprintf("e%d", i)})
	}
	recs := f.Snapshot()
	if len(recs) != 8 {
		t.Fatalf("ring holds %d records, want 8", len(recs))
	}
	for i, r := range recs {
		if want := uint64(13 + i); r.Seq != want { // 20 writes, ring of 8 → seqs 13..20
			t.Errorf("recs[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
}

func TestFlightRecorderConcurrentRecord(t *testing.T) {
	f := NewFlightRecorder(128)
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(SpanRecord{Kind: "event", Name: "w", Attrs: map[string]any{"k": k}})
			}
		}(k)
	}
	wg.Wait()
	recs := f.Snapshot()
	if len(recs) != 128 {
		t.Fatalf("ring holds %d, want 128", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestFlightRecorderWriteJSONL(t *testing.T) {
	f := NewFlightRecorder(16)
	f.Record(SpanRecord{Kind: "span", Phase: PhaseFreeze, Name: "/v1/sample", DurNS: 42})
	f.Record(SpanRecord{Kind: "trip", Name: "slo-breach"})
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", n, err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("dump has %d lines, want 2", n)
	}
}

func TestFlightRecorderTripDumpsToDisk(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(16, WithFlightDir(dir), WithFlightDumpGap(0))
	f.Record(SpanRecord{Kind: "event", Name: "before"})
	path, err := f.Trip("fault:serve.sim", map[string]any{"point": "serve.sim"})
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("trip with a dump dir wrote no file")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	var sawTrip bool
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("dump line is not valid JSON: %v", err)
		}
		if rec.Kind == "trip" && rec.Name == "fault:serve.sim" {
			sawTrip = true
		}
	}
	if !sawTrip {
		t.Fatal("dump does not contain the trip record")
	}
	if f.Trips() != 1 {
		t.Fatalf("Trips() = %d, want 1", f.Trips())
	}
}

func TestFlightRecorderTripRateLimit(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(16, WithFlightDir(dir), WithFlightDumpGap(0))
	if p, _ := f.Trip("first", nil); p == "" {
		t.Fatal("first trip did not dump")
	}
	// Re-arm with a large gap: the second trip records but does not dump.
	f2 := NewFlightRecorder(16, WithFlightDir(dir), WithFlightDumpGap(0))
	if _, err := f2.Trip("a", nil); err != nil {
		t.Fatal(err)
	}
	f2.minGap = 1 << 60
	if p, _ := f2.Trip("b", nil); p != "" {
		t.Fatal("rate-limited trip still dumped")
	}
	if f2.Trips() != 2 {
		t.Fatalf("Trips() = %d, want 2 (the ring records even when dumping is throttled)", f2.Trips())
	}
	entries, _ := os.ReadDir(dir)
	var files int
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".jsonl" {
			files++
		}
	}
	if files != 2 {
		t.Fatalf("%d dump files, want 2", files)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(SpanRecord{})
	if got := f.Snapshot(); got != nil {
		t.Fatal("nil recorder snapshot not nil")
	}
	if p, err := f.Trip("x", nil); p != "" || err != nil {
		t.Fatal("nil recorder trip not inert")
	}
	if f.Trips() != 0 {
		t.Fatal("nil recorder counted a trip")
	}
}
