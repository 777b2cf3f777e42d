package job

// Write-ahead log for the job store, in the snapstore codec style.
//
// The log is one append-only file, wal.jlog, in the jobs directory. Each
// record is an independently checkable frame:
//
//	u32  payload length (little-endian)
//	u16  codec version
//	u8   record type
//	...  payload (JSON or a binary run record; see records.go)
//	u64  CRC-64 (ECMA) over [version..payload]
//
// Records are written as they are made and fsynced before the in-memory
// state they describe becomes visible, so any progress a client has
// observed survives a SIGKILL or a power cut. A job's chunk frames are
// group-committed: each is written as soon as its chunk is drawn, and one
// fsync makes a batch of them durable (manager.go). A written frame is in
// the page cache, which outlives a SIGKILL, so replay after a kill also
// reads frames whose batch had not synced yet.
//
// Crash anatomy, layer by layer:
//
//   - a torn final record (power cut mid-append) fails the length check at
//     the tail: replay keeps every record before it;
//   - a CRC or version mismatch on a complete frame is damage: replay keeps
//     the valid prefix, and the damaged bytes are kept under a .corrupt name
//     no earlier quarantine holds (a hard link to the log);
//   - either way the log is salvaged: the caller compacts before anything
//     is appended. Until that compaction is durable the damaged log stays
//     authoritative, so a failed one loses nothing;
//   - compaction writes the live state through atomicfile.Write: a temp
//     file in the directory, fsynced and renamed over the log. A crash
//     before the rename leaves the old log and a stray temp file, which the
//     next open removes; after it, the compacted log replays to the state
//     the compaction captured.
//
// Compaction is due once the log holds max(threshold, 2 × what the last
// compaction wrote) bytes. A compaction rewrites the live state, so before
// it rewrites L bytes again at least L more have been appended: however
// large the retained results grow, compaction's cost stays proportional to
// the bytes appended, and the log to a small multiple of the live state.
//
// Older builds wrote a directory of numbered segments (wal-*.jlog). Open
// imports such a store once: its segments replay in name order through the
// same scanner, the caller's compaction writes the one log, and only then
// are the segments removed.
//
// Record ordering is the only contract: replaying records in append order
// through Manager's apply function reconstructs the store exactly.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"weaksim/internal/atomicfile"
	"weaksim/internal/fault"
)

// Record types.
const (
	// recSubmit carries a Spec: a new job entered the system.
	recSubmit uint8 = 1
	// recChunkJSON carries a chunkRecord, recChunkRun's JSON form in older
	// builds. Replayed, never written.
	recChunkJSON uint8 = 2
	// recState carries a stateRecord: a terminal transition.
	recState uint8 = 3
	// recCheckpointJSON carries a checkpointRecord, recCheckpointRun's JSON
	// form in older builds. Replayed, never written.
	recCheckpointJSON uint8 = 4
	// recChunkRun carries a chunk run (records.go): one chunk's tallies are
	// final.
	recChunkRun uint8 = 5
	// recCheckpointRun carries a checkpoint run: a full merged snapshot of
	// one job's progress, written during compaction. It supersedes every
	// earlier record for the job.
	recCheckpointRun uint8 = 6
)

const (
	walVersion = 1
	// logName is the log file in the jobs directory.
	logName = "wal.jlog"
	// legacyGlob matches the segments of the older multi-file layout.
	legacyGlob    = "wal-*.jlog"
	corruptExt    = ".corrupt"
	frameOverhead = 4 + 2 + 1 + 8 // len + version + type + crc
	// maxRecordBytes bounds a single record; anything larger in a frame
	// header is treated as corruption, not an allocation request.
	maxRecordBytes = 64 << 20
	// DefaultSegmentBytes is the least log size at which the log compacts.
	DefaultSegmentBytes = 8 << 20
)

// Record is one WAL entry.
type Record struct {
	Type    uint8
	Payload []byte
}

var walCRC = crc64.MakeTable(crc64.ECMA)

// wal is the log. The Manager serializes access (every call runs under the
// manager mutex), so the type itself carries no lock.
type wal struct {
	path        string
	f           *os.File // the log, opened for append; nil until a salvage or import is compacted
	size        int64    // log size
	threshold   int64    // least compaction threshold
	compacted   int64    // bytes the last compaction wrote
	compactions int      // compactions over the wal's lifetime
	legacy      []string // older-layout segments, removed once compacted
}

// encodeFrame renders one record frame.
func encodeFrame(rec Record) []byte {
	buf := make([]byte, 0, frameOverhead+len(rec.Payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Payload)))
	buf = binary.LittleEndian.AppendUint16(buf, walVersion)
	buf = append(append(buf, rec.Type), rec.Payload...)
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf[4:], walCRC))
}

// scanResult is one log's replay outcome.
type scanResult struct {
	records []Record
	// end is the length of the valid prefix: the records re-encode to
	// data[:end]. Below len(data), the tail is torn or corrupt.
	end int
	// corrupt reports a CRC/version mismatch or an impossible length on a
	// frame: damage, not a torn append.
	corrupt bool
}

// scanLog walks data record by record, stopping at the first frame that
// does not check out.
func scanLog(data []byte) scanResult {
	var res scanResult
	for off := 0; off < len(data); off = res.end {
		rest := len(data) - off
		if rest < frameOverhead {
			return res // torn
		}
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if plen > maxRecordBytes {
			res.corrupt = true
			return res
		}
		if rest < frameOverhead+plen {
			return res // torn
		}
		body := data[off+4 : off+7+plen] // version + type + payload
		crc := binary.LittleEndian.Uint64(data[off+7+plen : off+frameOverhead+plen])
		// A frame from a different codec version is intact, but this build
		// cannot interpret it: it is quarantined like damage, so the
		// .corrupt file keeps the bytes for a build that can.
		if crc64.Checksum(body, walCRC) != crc || binary.LittleEndian.Uint16(body[0:2]) != walVersion {
			res.corrupt = true
			return res
		}
		res.records = append(res.records, Record{Type: body[2], Payload: bytes.Clone(body[3:])})
		res.end = off + frameOverhead + plen
	}
	return res
}

// openWAL opens (creating if needed) the log in dir and replays it,
// importing an older-layout store first. It returns the records in append
// order and salvaged=true when the log was damaged or a store was imported:
// the caller must then compact, which opens the log for appends.
func openWAL(dir string, threshold int64) (w *wal, records []Record, salvaged bool, err error) {
	if dir == "" {
		return nil, nil, false, errors.New("job: empty WAL directory")
	}
	if threshold <= 0 {
		threshold = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, false, fmt.Errorf("job: wal: %w", err)
	}
	w = &wal{path: filepath.Join(dir, logName), threshold: threshold}
	// A compaction the process died in left its temp file: the log it was
	// to replace is still authoritative.
	if err := atomicfile.Clean(w.path); err != nil {
		return nil, nil, false, fmt.Errorf("job: wal: %w", err)
	}
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, nil, false, fmt.Errorf("job: wal: %w", err)
	}
	for _, e := range entries {
		if ok, _ := filepath.Match(legacyGlob, e.Name()); ok && !e.IsDir() {
			w.legacy = append(w.legacy, filepath.Join(dir, e.Name()))
		}
	}
	salvaged = len(w.legacy) > 0
	for _, path := range append(w.legacy[:len(w.legacy):len(w.legacy)], w.path) {
		recs, size, damaged, err := load(path)
		if err != nil {
			return nil, nil, false, err
		}
		records = append(records, recs...)
		salvaged = salvaged || damaged
		w.size = size
	}
	if salvaged {
		return w, records, true, nil
	}
	if w.f, err = os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, nil, false, fmt.Errorf("job: wal: %w", err)
	}
	return w, records, false, nil
}

// load reads and scans one log file; a missing file is empty. It reports
// the file's size, and damaged=true when the scan stopped short. A corrupt
// file is quarantined first.
func load(path string) (records []Record, size int64, damaged bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("job: wal: %w", err)
	}
	size = int64(len(data))
	// Fault hook: chaos tests damage the bytes between disk and the
	// scanner, proving quarantine and salvage end to end.
	if data, err = fault.Mangle(fault.JobWALReplay, data); err != nil {
		return nil, 0, false, fmt.Errorf("job: wal replay %s: %w", path, err)
	}
	res := scanLog(data)
	if res.corrupt {
		if err := quarantine(path); err != nil {
			return nil, 0, false, fmt.Errorf("job: wal quarantine: %w", err)
		}
	}
	return res.records, size, res.end < len(data), nil
}

// quarantine keeps path's bytes under a .corrupt name that no earlier
// quarantine holds. It is a hard link, so the bytes stay when a compaction
// renames a new log over path.
func quarantine(path string) error {
	for i := 1; ; i++ {
		err := os.Link(path, fmt.Sprintf("%s.%d%s", path, i, corruptExt))
		if !errors.Is(err, os.ErrExist) {
			return err
		}
	}
}

// write frames, (fault-)mangles and writes one record, with no fsync: the
// frame is in the page cache, which a SIGKILL does not lose, but not yet
// durable against a power cut.
func (w *wal) write(rec Record) error {
	frame := encodeFrame(rec)
	frame, err := fault.Mangle(fault.JobWALWrite, frame)
	if err != nil {
		return fmt.Errorf("job: wal append: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("job: wal append: %w", err)
	}
	w.size += int64(len(frame))
	return nil
}

// sync fsyncs the log. It is the durability edge: the caller only updates
// client-visible state for the records it wrote after sync returns nil.
func (w *wal) sync() error {
	if err := fault.Hit(fault.JobWALSync); err != nil {
		return fmt.Errorf("job: wal sync: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("job: wal sync: %w", err)
	}
	return nil
}

// needsCompact reports whether the log has outgrown both the threshold and
// twice the live state the last compaction wrote.
func (w *wal) needsCompact() bool { return w.size >= max(w.threshold, 2*w.compacted) }

// compact replaces the log with snapshot, the caller's entire live state
// re-encoded, and appends to the new log from then on. Its frames pass the
// job.wal.write fault hook as appended ones do. A failure leaves the old
// log authoritative and appended to.
func (w *wal) compact(snapshot []Record) error {
	var size int64
	err := atomicfile.Write(w.path, func(out io.Writer) error {
		for _, rec := range snapshot {
			frame, err := fault.Mangle(fault.JobWALWrite, encodeFrame(rec))
			if err != nil {
				return err
			}
			if _, err := out.Write(frame); err != nil {
				return err
			}
			size += int64(len(frame))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("job: wal compact: %w", err)
	}
	if w.f != nil {
		_ = w.f.Close() // the replaced log's inode: nothing reads it again
	}
	w.size, w.compacted = size, size
	w.compactions++
	// The import is durable: the older layout's segments are garbage now.
	// One left behind by a crash here replays ahead of the log next time,
	// and the log's records supersede it.
	for _, seg := range w.legacy {
		_ = os.Remove(seg)
	}
	w.legacy = nil
	if w.f, err = os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return fmt.Errorf("job: wal compact: %w", err)
	}
	return nil
}

// close releases the log handle.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
