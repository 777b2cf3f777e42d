// Package snapstore persists frozen DD snapshots to disk so a restarted
// daemon can serve sampling requests without re-running strong simulation
// ("warm restart").
//
// The store is crash-safe by construction, not by recovery code:
//
//   - every file is written to a temp name in the same directory, fsynced,
//     and then atomically renamed into place — a crash mid-write leaves
//     either the old file or no file, never a half-written one;
//   - every file carries a CRC-64 (ECMA) trailer over the snapshot bytes,
//     so torn sectors and bit rot are detected before decoding;
//   - every file that fails the CRC, the decoder, or the snapshot's own
//     invariant audit (dd.Snapshot.Verify) is quarantined — renamed to
//     <name>.corrupt — and reported as a miss. A corrupted snapshot is
//     re-simulated, never served.
//
// Keys are the serving layer's canonical circuit hashes (hex SHA-256); the
// store rejects anything that is not plain hex-ish text so a key can never
// escape the store directory.
package snapstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"

	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/obs"
)

// ext is the snapshot file suffix; quarantined files gain corruptExt on top.
const (
	ext        = ".wsnap"
	corruptExt = ".corrupt"
)

var (
	// ErrNotFound reports a key with no stored snapshot.
	ErrNotFound = errors.New("snapstore: snapshot not found")
	// ErrCorrupt reports a stored snapshot that failed the CRC, the
	// decoder, or its invariant audit. The offending file has already been
	// quarantined when this is returned; the caller should re-simulate.
	ErrCorrupt = errors.New("snapstore: snapshot corrupt (quarantined)")
	// ErrVersionMismatch reports an intact snapshot written by a different
	// codec version than this build reads — a mixed-version cluster, not
	// corruption. The file (or wire payload) passed its CRC, so it is NOT
	// quarantined: a newer binary sharing the directory can still read it,
	// and this process simply re-simulates.
	ErrVersionMismatch = errors.New("snapstore: snapshot codec version mismatch")
)

// crcTable is the ECMA polynomial table; package-level so Put and Get share
// one allocation for the life of the process.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Store is a directory of persisted snapshots. All methods are safe for
// concurrent use: atomicity comes from the filesystem (rename), not locks.
type Store struct {
	dir string

	// Optional observability; nil-safe like every obs handle.
	writes     *obs.Counter
	reads      *obs.Counter
	misses     *obs.Counter
	quarantine *obs.Counter
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("snapstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// SetObserver attaches a metrics registry. Passing nil detaches.
func (s *Store) SetObserver(reg *obs.Registry) {
	if reg == nil {
		s.writes, s.reads, s.misses, s.quarantine = nil, nil, nil, nil
		return
	}
	s.writes = reg.Counter("snapstore_writes_total")
	s.reads = reg.Counter("snapstore_reads_total")
	s.misses = reg.Counter("snapstore_misses_total")
	s.quarantine = reg.Counter("snapstore_quarantined_total")
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a validated key to its file path.
func (s *Store) path(key string) (string, error) {
	if key == "" || len(key) > 128 || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("snapstore: invalid key %q", key)
	}
	for _, r := range key {
		ok := r == '-' || r == '_' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return "", fmt.Errorf("snapstore: invalid key %q", key)
		}
	}
	return filepath.Join(s.dir, key+ext), nil
}

// Put encodes and durably stores snap under key, replacing any previous
// version. The write is atomic: concurrent readers see the old file or the
// new one, and a crash at any point leaves a consistent directory.
func (s *Store) Put(key string, snap *dd.Snapshot) error {
	path, err := s.path(key)
	if err != nil {
		return err
	}
	// Fault hook: chaos tests forge torn writes and bit rot in the file's
	// bytes, CRC trailer included, as a disk would, proving the
	// CRC/quarantine path end to end without hex-editing files.
	frame, err := fault.Mangle(fault.SnapstoreWrite, Encode(snap))
	if err != nil {
		return fmt.Errorf("snapstore: write %s: %w", key, err)
	}

	tmp, err := os.CreateTemp(s.dir, "put-*"+ext+".tmp")
	if err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, werr := tmp.Write(frame)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("snapstore: write %s: %w", key, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	s.writes.Inc()
	return nil
}

// Get loads, checks, decodes, and audits the snapshot stored under key.
// A missing file returns ErrNotFound. A file failing any integrity layer is
// renamed to <file>.corrupt and reported as ErrCorrupt — after quarantine
// the key reads as ErrNotFound, so the caller's re-simulation can Put a
// fresh snapshot without fighting the bad file.
func (s *Store) Get(key string) (*dd.Snapshot, error) {
	path, err := s.path(key)
	if err != nil {
		return nil, err
	}
	if err := fault.Hit(fault.SnapstoreRead); err != nil {
		// An injected read error is an I/O failure, not corruption: the
		// caller treats it as a miss and the file survives untouched.
		s.misses.Inc()
		return nil, fmt.Errorf("snapstore: read %s: %w", key, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			s.misses.Inc()
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	if data, err = fault.Mangle(fault.SnapstoreRead, data); err != nil {
		s.misses.Inc()
		return nil, fmt.Errorf("snapstore: read %s: %w", key, err)
	}
	snap, err := decodeChecked(data)
	if err != nil {
		if errors.Is(err, ErrVersionMismatch) {
			// The frame is intact — a different codec version wrote it. Leave
			// the file for binaries that can read it; this process treats the
			// key as a miss and re-simulates.
			s.misses.Inc()
			return nil, fmt.Errorf("%w (key %s)", err, key)
		}
		return nil, s.quarantineFile(path, key, err)
	}
	s.reads.Inc()
	return snap, nil
}

// Encode frames snap in the store's wire format: the dd binary snapshot
// image followed by a little-endian CRC-64 (ECMA) trailer over it. This is
// byte-for-byte the on-disk file format, exported so the cluster's
// snapshot-shipping endpoints exchange exactly the integrity guarantees of a
// persisted file — CRC against torn transfers, versioned header against
// mixed-version peers.
func Encode(snap *dd.Snapshot) []byte {
	payload := dd.EncodeSnapshot(snap)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc64.Checksum(payload, crcTable))
	return append(payload, trailer[:]...)
}

// Decode parses and fully audits an Encode frame: CRC trailer, structural
// decode, invariant audit. Damage at any layer returns an error wrapping
// ErrCorrupt; a frame written by a different codec version returns one
// wrapping ErrVersionMismatch instead, so mixed-version clusters fail clean
// (fall back to re-simulation) rather than treating a healthy peer's bytes
// as corruption.
func Decode(data []byte) (*dd.Snapshot, error) { return decodeChecked(data) }

// decodeChecked runs the three integrity layers in order: CRC trailer,
// structural decode, invariant audit.
func decodeChecked(data []byte) (*dd.Snapshot, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: frame shorter than the CRC trailer", ErrCorrupt)
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	if got, want := crc64.Checksum(payload, crcTable), binary.LittleEndian.Uint64(trailer); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch: computed %016x, stored %016x", ErrCorrupt, got, want)
	}
	snap, err := dd.DecodeSnapshot(payload)
	if err != nil {
		if errors.Is(err, dd.ErrSnapshotVersion) {
			return nil, fmt.Errorf("%w: %v", ErrVersionMismatch, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := snap.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, nil
}

// quarantineFile renames the bad file aside and reports ErrCorrupt.
func (s *Store) quarantineFile(path, key string, cause error) error {
	s.quarantine.Inc()
	if err := os.Rename(path, path+corruptExt); err != nil && !errors.Is(err, os.ErrNotExist) {
		// Quarantine must never mask the corruption verdict; keep going.
		return fmt.Errorf("%w: %s: %v (quarantine rename failed: %v)", ErrCorrupt, key, cause, err)
	}
	return fmt.Errorf("%w: %s: %v", ErrCorrupt, key, cause)
}

// Keys lists the keys with a (non-quarantined) stored snapshot.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ext) {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ext))
	}
	return keys, nil
}
