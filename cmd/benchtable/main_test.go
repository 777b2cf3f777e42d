package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunRefusesRetiredNorm: the retired l2 scheme is a usage error (exit
// code 2, like any bad flag) before any row runs, and the error names its
// replacement. The flag set exits the process, so run runs in a child copy
// of this test binary.
func TestRunRefusesRetiredNorm(t *testing.T) {
	if os.Getenv("BENCHTABLE_RETIRED_NORM") == "1" {
		_ = run([]string{"-norm", "l2", "-rows", "qft_16", "-shots", "1"})
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunRefusesRetiredNorm$")
	cmd.Env = append(os.Environ(), "BENCHTABLE_RETIRED_NORM=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "l2phase") {
		t.Fatalf("benchtable -norm l2: %v, output %q; want exit code 2 and an error naming l2phase", err, out)
	}
}

func TestResolveJSONOut(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 8, 6, 12, 34, 56, 0, time.UTC)
	stamp := "BENCH_20260806T123456.json"

	t.Run("empty means disabled", func(t *testing.T) {
		path, err := resolveJSONOut("", now)
		if err != nil || path != "" {
			t.Fatalf("got (%q, %v), want empty/no error", path, err)
		}
	})

	t.Run("explicit path kept verbatim", func(t *testing.T) {
		want := filepath.Join(dir, "run.json")
		path, err := resolveJSONOut(want, now)
		if err != nil || path != want {
			t.Fatalf("got (%q, %v), want %q", path, err, want)
		}
	})

	t.Run("bare auto lands in cwd", func(t *testing.T) {
		path, err := resolveJSONOut("auto", now)
		if err != nil {
			t.Fatal(err)
		}
		if path != stamp {
			t.Fatalf("got %q, want %q", path, stamp)
		}
	})

	t.Run("auto respects the output directory", func(t *testing.T) {
		path, err := resolveJSONOut(filepath.Join(dir, "auto"), now)
		if err != nil {
			t.Fatal(err)
		}
		if want := filepath.Join(dir, stamp); path != want {
			t.Fatalf("got %q, want %q", path, want)
		}
	})

	t.Run("timestamp is pinned at startup", func(t *testing.T) {
		a, _ := resolveJSONOut("auto", now)
		b, _ := resolveJSONOut("auto", now.Add(3*time.Hour))
		if a == b {
			t.Fatalf("different start times produced the same name %q", a)
		}
	})

	t.Run("missing directory fails up front", func(t *testing.T) {
		_, err := resolveJSONOut(filepath.Join(dir, "nope", "auto"), now)
		if err == nil {
			t.Fatal("nonexistent directory accepted")
		}
	})

	t.Run("file in the directory position fails", func(t *testing.T) {
		file := filepath.Join(dir, "plainfile")
		if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := resolveJSONOut(filepath.Join(file, "auto"), now)
		if err == nil {
			t.Fatal("regular file accepted as output directory")
		}
		if !strings.Contains(err.Error(), "-json-out") {
			t.Fatalf("error %q does not name the flag", err)
		}
	})

	t.Run("probe leaves no residue", func(t *testing.T) {
		sub := filepath.Join(dir, "clean")
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := resolveJSONOut(filepath.Join(sub, "auto"), now); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("probe left %d file(s) behind", len(entries))
		}
	})
}

func TestWriteJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	doc := benchDoc{
		GeneratedAt: "2026-08-06T12:00:00Z",
		Shots:       1000,
		Seed:        7,
		Norm:        "l2phase",
		Workers:     2,
		Rows: []benchRow{
			{Name: "qft_16", Qubits: 16, Status: "ok", DDFrozenSeconds: 0.2},
			{Name: "supremacy_5x5_10", Status: "MO"},
		},
	}
	if err := writeJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back benchDoc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Shots != 1000 || len(back.Rows) != 2 || back.Rows[0].Name != "qft_16" {
		t.Fatalf("round trip mangled the document: %+v", back)
	}
	if back.Rows[0].DDFrozenSeconds != 0.2 || back.Rows[1].Status != "MO" || back.Rows[1].DDFrozenSeconds != 0 {
		t.Fatalf("MO row mangled: %+v", back.Rows[1])
	}
}
