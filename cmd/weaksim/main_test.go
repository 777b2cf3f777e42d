package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weaksim"
)

// readMetrics parses a -metrics-out document and fails the test if the file
// is missing or malformed — satellite requirement: the telemetry JSON must be
// written and parseable on every outcome, failed runs included.
func readMetrics(t *testing.T, path string) metricsFile {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file not written: %v", err)
	}
	var doc metricsFile
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("metrics file not parseable: %v\n%s", err, b)
	}
	return doc
}

func TestRunSuccessExitOK(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	err := run([]string{"-bench", "qft_8", "-shots", "5", "-metrics-out", mpath}, &out, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code := exitCode(err); code != exitOK {
		t.Fatalf("exit code = %d, want %d", code, exitOK)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 5 {
		t.Fatalf("printed %d sample lines, want 5", lines)
	}
	doc := readMetrics(t, mpath)
	if doc.Status != "ok" || doc.Circuit != "qft_8" || doc.Qubits != 8 {
		t.Fatalf("metrics doc header wrong: %+v", doc)
	}
	if doc.Telemetry == nil {
		t.Fatal("metrics doc missing telemetry")
	}
	if doc.Telemetry.Backend != "dd" || doc.Telemetry.PeakNodes <= 0 {
		t.Fatalf("telemetry incomplete: %+v", doc.Telemetry)
	}
	if doc.Telemetry.PhaseNS["build"] <= 0 || doc.Telemetry.PhaseNS["apply"] <= 0 {
		t.Fatalf("phase timings missing: %v", doc.Telemetry.PhaseNS)
	}
	for _, kind := range []string{"unique_v", "unique_m", "cache_mul"} {
		if _, ok := doc.Telemetry.HitRates[kind]; !ok {
			t.Errorf("hit rate %q missing: %v", kind, doc.Telemetry.HitRates)
		}
	}
}

func TestRunMemoryOutExit3(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	err := run([]string{"-bench", "qft_16", "-dd-node-budget", "40", "-metrics-out", mpath},
		io.Discard, io.Discard)
	if err == nil {
		t.Fatal("budgeted run succeeded")
	}
	if code := exitCode(err); code != exitMO {
		t.Fatalf("exit code = %d (%v), want %d (MO)", code, err, exitMO)
	}
	doc := readMetrics(t, mpath)
	if doc.Status != "MO" {
		t.Fatalf("status = %q, want MO", doc.Status)
	}
	if doc.Error == "" {
		t.Fatal("MO doc carries no error string")
	}
	if doc.Telemetry == nil || doc.Telemetry.PeakNodes <= 0 {
		t.Fatalf("MO doc lost its telemetry: %+v", doc.Telemetry)
	}
}

func TestRunTimeoutExit4(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	err := run([]string{"-bench", "grover_14", "-timeout", "1ns", "-metrics-out", mpath},
		io.Discard, io.Discard)
	if err == nil {
		t.Fatal("1ns-deadline run succeeded")
	}
	if code := exitCode(err); code != exitTimeout {
		t.Fatalf("exit code = %d (%v), want %d (TO)", code, err, exitTimeout)
	}
	doc := readMetrics(t, mpath)
	if doc.Status != "TO" {
		t.Fatalf("status = %q, want TO", doc.Status)
	}
	if doc.Telemetry == nil {
		t.Fatal("TO doc lost its telemetry")
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{}, // neither -bench nor -qasm
		{"-bench", "x", "-qasm", "y"},
		{"-bench", "qft_8", "-method", "nope"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		err := run(args, io.Discard, io.Discard)
		if code := exitCode(err); code != exitUsage {
			t.Errorf("run(%v): exit code = %d (%v), want %d", args, code, err, exitUsage)
		}
	}
}

// TestRunTraceOut pins the -trace-out stream: every line decodes as a
// weaksim.TraceEvent, all lines share the run's one trace ID, the four
// pipeline phases each appear as a span, and -trace-every 8 yields one op
// event per 8 applied ops.
func TestRunTraceOut(t *testing.T) {
	dir := t.TempDir()
	tpath := filepath.Join(dir, "t.jsonl")
	err := run([]string{"-bench", "qft_8", "-shots", "64", "-histogram", "-trace-out", tpath, "-trace-every", "8"},
		io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) == 0 {
		t.Fatal("trace file empty")
	}
	spans := map[string]int{}
	ops := 0
	var traceID string
	for _, line := range lines {
		var ev weaksim.TraceEvent
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if traceID == "" {
			traceID = ev.TraceID
		}
		if ev.TraceID == "" || ev.TraceID != traceID {
			t.Fatalf("trace line %q: trace ID %q, want the run's one ID %q", line, ev.TraceID, traceID)
		}
		switch {
		case ev.Kind == "span":
			spans[ev.Phase]++
		case ev.Kind == "event" && ev.Name == "op":
			ops++
		}
	}
	for _, phase := range []string{"build", "apply", "freeze", "sample"} {
		if spans[phase] == 0 {
			t.Errorf("no %s span in the trace: %v", phase, spans)
		}
	}
	c, err := weaksim.GenerateBenchmark("qft_8")
	if err != nil {
		t.Fatal(err)
	}
	if want := c.NumOps() / 8; ops != want {
		t.Errorf("%d op events, want %d (one per 8 of %d ops)", ops, want, c.NumOps())
	}
}

func TestRunAutoDegradesWithReportStatus(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	// Vector tier too small for 16 qubits → falls back to DD, which fits.
	err := run([]string{"-bench", "qft_16", "-auto", "-vector-budget", "4",
		"-shots", "1", "-metrics-out", mpath}, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("auto run failed: %v", err)
	}
	doc := readMetrics(t, mpath)
	if doc.Status != "ok" || doc.Telemetry.Backend != "dd" {
		t.Fatalf("auto degradation not reflected: status=%q backend=%q", doc.Status, doc.Telemetry.Backend)
	}
}
