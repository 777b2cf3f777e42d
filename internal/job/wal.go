package job

// Write-ahead log for the job store, in the snapstore codec style.
//
// The log is a directory of numbered append-only segment files
// (wal-00000001.jlog, ...). Each record is an independently checkable frame:
//
//	u32  payload length (little-endian)
//	u16  codec version
//	u8   record type
//	...  payload (JSON or a binary run record; see records.go)
//	u64  CRC-64 (ECMA) over [version..payload]
//
// Appends are fsynced before the in-memory state they describe becomes
// visible, so any progress a client has observed survives a SIGKILL.
//
// Crash anatomy, layer by layer:
//
//   - a torn final record (power cut mid-append) fails the length or CRC
//     check at the tail of the last segment: replay stops cleanly at the
//     last valid record and the file is truncated back to it, so future
//     appends extend a consistent log;
//   - a CRC mismatch anywhere else is real corruption: the valid prefix is
//     salvaged, the segment is quarantined (renamed .corrupt) and the
//     caller is told to re-persist the replayed state immediately;
//   - rotation compacts the live state into a fresh segment written
//     tmp+fsync+rename — atomically visible — and only then deletes the
//     older segments, so a crash at any point replays to the same state
//     (replay of old-then-compacted segments is idempotent by
//     construction: checkpoints supersede, duplicate chunk records are
//     skipped).
//
// Rotation is due once the active segment holds max(maxSeg, 2 × what the
// last rotation wrote) bytes. A rotation rewrites the live state, so before
// it rewrites L bytes again at least L more have been appended: however
// large the retained results grow, compaction's cost stays proportional to
// the bytes appended, and the log to a small multiple of the live state.
//
// Record ordering is the only contract: replaying records in append order
// through Manager's apply function reconstructs the store exactly.

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

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
	walVersion    = 1
	segExt        = ".jlog"
	segPrefix     = "wal-"
	corruptExt    = ".corrupt"
	frameOverhead = 4 + 2 + 1 + 8 // len + version + type + crc
	// maxRecordBytes bounds a single record; anything larger in a frame
	// header is treated as corruption, not an allocation request.
	maxRecordBytes = 64 << 20
	// DefaultSegmentBytes is the least size at which the active segment
	// rotates.
	DefaultSegmentBytes = 8 << 20
)

// Record is one WAL entry.
type Record struct {
	Type    uint8
	Payload []byte
}

var walCRC = crc64.MakeTable(crc64.ECMA)

// wal is the segmented log. The Manager serializes access (every call runs
// under the manager mutex), so the type itself carries no lock.
type wal struct {
	dir       string
	f         *os.File // active segment, opened for append
	seq       uint64   // active segment sequence number
	size      int64    // active segment size
	maxSeg    int64    // least rotation threshold
	compacted int64    // bytes the last rotation wrote
	rotations int      // rotations over the wal's lifetime
}

func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segExt) }

// parseSeg extracts the sequence from a segment file name.
func parseSeg(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segExt), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// encodeFrame renders one record frame.
func encodeFrame(rec Record) []byte {
	buf := make([]byte, 0, frameOverhead+len(rec.Payload))
	var hdr [7]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec.Payload)))
	binary.LittleEndian.PutUint16(hdr[4:6], walVersion)
	hdr[6] = rec.Type
	buf = append(buf, hdr[:]...)
	buf = append(buf, rec.Payload...)
	crc := crc64.Checksum(buf[4:], walCRC)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc)
	return append(buf, trailer[:]...)
}

// scanResult is one segment's replay outcome.
type scanResult struct {
	records []Record
	// tornAt >= 0 marks an incomplete final frame (clean crash tail): the
	// byte offset replay stopped at.
	tornAt int64
	// corrupt reports a CRC/version mismatch on a complete frame — damage,
	// not a torn append.
	corrupt bool
}

// scanSegment walks data record by record, stopping at the first frame that
// does not check out.
func scanSegment(data []byte) scanResult {
	res := scanResult{tornAt: -1}
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < frameOverhead {
			res.tornAt = int64(off)
			return res
		}
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if plen > maxRecordBytes {
			res.corrupt = true
			return res
		}
		if rest < frameOverhead+plen {
			res.tornAt = int64(off)
			return res
		}
		body := data[off+4 : off+7+plen] // version + type + payload
		crc := binary.LittleEndian.Uint64(data[off+7+plen : off+frameOverhead+plen])
		if crc64.Checksum(body, walCRC) != crc {
			res.corrupt = true
			return res
		}
		if v := binary.LittleEndian.Uint16(body[0:2]); v != walVersion {
			// An intact frame from a different codec version: this build
			// cannot interpret it. Treat like corruption for quarantine
			// purposes (the .corrupt file keeps the bytes for a build that
			// can).
			res.corrupt = true
			return res
		}
		payload := make([]byte, plen)
		copy(payload, body[3:])
		res.records = append(res.records, Record{Type: body[2], Payload: payload})
		off += frameOverhead + plen
	}
	return res
}

// openWAL opens (creating if needed) the log in dir and replays every
// segment in sequence order. It returns the replayable records in append
// order and salvaged=true when any segment was quarantined or truncated —
// the caller must immediately compact so the salvaged state is durable
// again.
func openWAL(dir string, maxSeg int64) (w *wal, records []Record, salvaged bool, err error) {
	if dir == "" {
		return nil, nil, false, fmt.Errorf("job: empty WAL directory")
	}
	if maxSeg <= 0 {
		maxSeg = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, false, fmt.Errorf("job: wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, false, fmt.Errorf("job: wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeg(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	w = &wal{dir: dir, maxSeg: maxSeg}
	var lastGood int64 = -1 // last segment's usable size (-1 = open fresh)
	for i, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, nil, false, fmt.Errorf("job: wal: %w", rerr)
		}
		// Fault hook: chaos tests damage the bytes between disk and the
		// scanner, proving quarantine/truncation end to end.
		if data, rerr = fault.Mangle(fault.JobWALReplay, data); rerr != nil {
			return nil, nil, false, fmt.Errorf("job: wal replay %s: %w", path, rerr)
		}
		res := scanSegment(data)
		records = append(records, res.records...)
		last := i == len(seqs)-1
		switch {
		case res.corrupt, res.tornAt >= 0 && !last:
			// Real damage (or a tear in a segment that was never the append
			// head): salvage the prefix, quarantine the file.
			salvaged = true
			_ = os.Rename(path, path+corruptExt)
		case res.tornAt >= 0:
			// Torn tail of the append head: truncate back to the last valid
			// record so future appends extend a consistent log.
			salvaged = true
			if terr := os.Truncate(path, res.tornAt); terr != nil {
				// Cannot repair in place: quarantine instead.
				_ = os.Rename(path, path+corruptExt)
			} else if last {
				lastGood = res.tornAt
			}
		case last:
			lastGood = int64(len(data))
		}
		if last {
			w.seq = seq
		}
	}
	if lastGood < 0 {
		// No usable tail segment: start the next sequence fresh.
		w.seq++
		f, cerr := os.OpenFile(filepath.Join(dir, segName(w.seq)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if cerr != nil {
			return nil, nil, false, fmt.Errorf("job: wal: %w", cerr)
		}
		w.f, w.size = f, 0
		return w, records, salvaged, nil
	}
	f, oerr := os.OpenFile(filepath.Join(dir, segName(w.seq)),
		os.O_WRONLY|os.O_APPEND, 0o644)
	if oerr != nil {
		return nil, nil, false, fmt.Errorf("job: wal: %w", oerr)
	}
	w.f, w.size = f, lastGood
	return w, records, salvaged, nil
}

// append frames, (fault-)mangles, writes, and fsyncs one record. The fsync
// is the durability edge: the caller only updates client-visible state after
// append returns nil.
func (w *wal) append(rec Record) error {
	frame := encodeFrame(rec)
	frame, err := fault.Mangle(fault.JobWALWrite, frame)
	if err != nil {
		return fmt.Errorf("job: wal append: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("job: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("job: wal sync: %w", err)
	}
	w.size += int64(len(frame))
	return nil
}

// needsRotate reports whether the active segment has outgrown both the
// threshold and twice the live state the last rotation wrote.
func (w *wal) needsRotate() bool { return w.size >= max(w.maxSeg, 2*w.compacted) }

// rotate compacts: the caller's snapshot records (the entire live state,
// re-encoded) are written to the next segment via tmp+fsync+rename, the
// active segment switches to it, and every older segment is deleted. A crash
// before the rename leaves the old segments authoritative; after it, the
// compacted segment replays to the same state the snapshot captured.
func (w *wal) rotate(snapshot []Record) error {
	next := w.seq + 1
	tmp, err := os.CreateTemp(w.dir, "rotate-*.tmp")
	if err != nil {
		return fmt.Errorf("job: wal rotate: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var size int64
	for _, rec := range snapshot {
		frame := encodeFrame(rec)
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("job: wal rotate: %w", err)
		}
		size += int64(len(frame))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("job: wal rotate: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("job: wal rotate: %w", err)
	}
	path := filepath.Join(w.dir, segName(next))
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("job: wal rotate: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("job: wal rotate: %w", err)
	}
	old := w.f
	oldSeq := w.seq
	w.f, w.seq, w.size, w.compacted = f, next, size, size
	w.rotations++
	if old != nil {
		_ = old.Close()
	}
	// Deletion is cleanup, not correctness: leftover old segments replay
	// before the compacted one and converge to the same state.
	for seq := oldSeq; seq > 0; seq-- {
		p := filepath.Join(w.dir, segName(seq))
		if err := os.Remove(p); err != nil {
			break // older ones were removed by earlier rotations
		}
	}
	return nil
}

// segments counts the segment files on disk (for gauges and tests).
func (w *wal) segments() int {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if _, ok := parseSeg(e.Name()); ok && !e.IsDir() {
			n++
		}
	}
	return n
}

// close releases the active segment handle.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
