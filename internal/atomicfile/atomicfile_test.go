package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func listDir(t *testing.T, dir string) []string {
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

// TestWriteReplaces: a successful Write replaces the file's bytes and
// leaves no temp file; a failed one leaves the old bytes and no temp file.
func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.log")
	for _, want := range []string{"first", "second"} {
		if err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, want)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("after Write(%q): %q, %v", want, got, err)
		}
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("a failed Write changed the file to %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want only f.log", names)
	}
	if err := Write(filepath.Join(dir, "missing", "f.log"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}

// TestClean removes the temp files of path's interrupted writes and
// nothing else.
func TestClean(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.log")
	for _, name := range []string{"f.log", "f.log.123.tmp", "f.log.9.tmp", "f.log.1.corrupt", "g.log.5.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := Clean(path); err != nil {
		t.Fatal(err)
	}
	got := listDir(t, dir)
	want := []string{"f.log", "f.log.1.corrupt", "g.log.5.tmp"}
	if len(got) != len(want) {
		t.Fatalf("after Clean: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after Clean: %v, want %v", got, want)
		}
	}
}
