// Package atomicfile replaces files durably: a reader, or a process started
// after a crash at any point, sees the old file or the new one, never a
// mixture, and once Write returns nil the new one survives a power cut.
//
// The protocol is the usual one: write a temp file in the target's
// directory, fsync it, close it, rename it over the target, and fsync the
// directory so the rename itself is on disk.
package atomicfile

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// tempSuffix ends every temp file Write makes; Clean removes leftovers.
const tempSuffix = ".tmp"

// Write replaces path with the bytes write produces; write's writer is
// buffered. A failure at any step leaves path as it was and removes the
// temp file.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*"+tempSuffix)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	// The rename is durable once the directory is.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Clean removes the temp files that Write calls for path left behind when
// the process died before their rename.
func Clean(path string) error {
	dir, base := filepath.Dir(path), filepath.Base(path)+"."
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, base) && strings.HasSuffix(name, tempSuffix) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
