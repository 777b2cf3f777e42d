package job

// WAL record payloads, carried inside the CRC-framed records of wal.go.
//
// submit and state records are JSON: one per job and one per terminal
// transition, small, and greppable in the field. chunk and checkpoint
// records carry a job's counts, one entry per distinct outcome, so they are
// binary run records, written straight from core.Tally.Ascending with no
// map, sort or reflection, and read straight into a core.TallyRun:
//
//	chunk run       id | chunk | shots | pairs
//	checkpoint run  id | shots | k | k done chunks | pairs
//	id              length, then that many bytes
//	pairs           (index, count) per outcome in ascending index order,
//	                until the counts sum to shots
//
// Every integer is an unsigned varint (encoding/binary's uvarint) in its
// shortest form. The first index and the first done chunk are written as
// they are, each later one as its distance from the one before, which is at
// least 1. So a record has one spelling: whatever payload the decoder
// accepts, the encoder writes byte for byte from what it decoded.
//
// The JSON chunk and checkpoint records of older builds (recChunkJSON,
// recCheckpointJSON) are still replayed, never written, so a store written
// by an older build resumes; a store written by this build does not replay
// under an older one. Integrity and atomicity come from the frame layer,
// not the payload encoding.

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"weaksim/internal/core"
)

// stateRecord is a terminal transition.
type stateRecord struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	ErrCode string `json:"err_code,omitempty"`
	Err     string `json:"err,omitempty"`
}

// mustRecord marshals a JSON payload into a Record; Spec and stateRecord
// marshal unconditionally.
func mustRecord(typ uint8, payload any) Record {
	b, err := json.Marshal(payload)
	if err != nil {
		panic(fmt.Sprintf("job: marshal record type %d: %v", typ, err))
	}
	return Record{Type: typ, Payload: b}
}

// ---- run records ----

// pairBytes estimates a pair's encoded size, to presize a record: a delta
// and a count of one or two bytes each.
const pairBytes = 3

// chunkRun is the chunk record of job id's chunk, shots samples tallied in
// counts.
func chunkRun(id string, chunk, shots int, counts *core.Tally) Record {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(id)+pairBytes*counts.Len())
	buf = appendID(buf, id)
	buf = binary.AppendUvarint(buf, uint64(chunk))
	buf = binary.AppendUvarint(buf, uint64(shots))
	return Record{Type: recChunkRun, Payload: appendPairs(buf, counts)}
}

// checkpointRun is the checkpoint record of job id: its done chunks, in
// strictly ascending order, which drew shots samples tallied in counts.
func checkpointRun(id string, done []int, shots int, counts *core.Tally) Record {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(id)+2*len(done)+pairBytes*counts.Len())
	buf = appendID(buf, id)
	buf = binary.AppendUvarint(buf, uint64(shots))
	buf = binary.AppendUvarint(buf, uint64(len(done)))
	prev := 0
	for _, c := range done {
		buf = binary.AppendUvarint(buf, uint64(c-prev))
		prev = c
	}
	return Record{Type: recCheckpointRun, Payload: appendPairs(buf, counts)}
}

func appendID(buf []byte, id string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(id))), id...)
}

// appendPairs appends counts' outcomes as (index delta, count) pairs, in
// ascending index order.
func appendPairs(buf []byte, counts *core.Tally) []byte {
	var prev uint64
	counts.Ascending(func(idx uint64, n int) {
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, idx-prev), uint64(n))
		prev = idx
	})
	return buf
}

// runHead is a run record's header and the pairs that follow it.
type runHead struct {
	id    string
	chunk int   // chunk runs
	done  []int // checkpoint runs: strictly ascending
	shots int
	pairs []byte
}

// errRun prefixes every refusal of a malformed run record.
var errRun = errors.New("job: malformed run record")

// runReader reads a run record's fields in order. The first malformed
// field sets err, and every read after it returns zero.
type runReader struct {
	p   []byte
	err error
}

func (r *runReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errRun}, args...)...)
	}
}

// uvarint reads one shortest-form uvarint.
func (r *runReader) uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	switch {
	case n == 0:
		r.fail("truncated at the %s", field)
	case n < 0:
		r.fail("the %s overflows 64 bits", field)
	case n > 1 && r.p[n-1] == 0:
		r.fail("the %s is not in its shortest form", field)
	default:
		r.p = r.p[n:]
		return v
	}
	return 0
}

// intAtMost reads a uvarint no larger than limit.
func (r *runReader) intAtMost(field string, limit uint64) int {
	v := r.uvarint(field)
	if v > limit {
		r.fail("the %s %d exceeds %d", field, v, limit)
		return 0
	}
	return int(v)
}

// readRunHead reads the header of a run record of type typ (recChunkRun or
// recCheckpointRun).
func readRunHead(typ uint8, p []byte) (runHead, error) {
	r := runReader{p: p}
	var h runHead
	if n := r.intAtMost("id length", uint64(len(p))); n <= len(r.p) {
		h.id, r.p = string(r.p[:n]), r.p[n:]
	} else {
		r.fail("truncated in the id")
	}
	if typ == recChunkRun {
		h.chunk = r.intAtMost("chunk", math.MaxInt32)
		h.shots = r.intAtMost("shots", math.MaxUint32)
	} else {
		h.shots = r.intAtMost("shots", math.MaxUint32)
		// Each done chunk takes at least a byte.
		k, last := r.intAtMost("done count", uint64(len(r.p))), 0
		for i := 0; i < k && r.err == nil; i++ {
			d := r.intAtMost("done chunk", math.MaxInt32)
			if i > 0 && d == 0 {
				r.fail("done chunk %d repeats", last)
			}
			last += d
			h.done = append(h.done, last)
		}
	}
	h.pairs = r.p
	return h, r.err
}

// decodeRun reads a run record's pairs into a one-run tally. It refuses
// counts no job of qubits could have committed for shots samples, as
// decodeCounts does — an index at or past 2^qubits, a zero count, counts
// that do not sum to shots — and pairs that do not strictly ascend, are cut
// short, or are followed by more bytes.
func decodeRun(p []byte, qubits, shots int) (*core.Tally, error) {
	if shots < 0 || uint64(shots) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d shots do not fit a run's counts", errRun, shots)
	}
	r := runReader{p: p}
	// A pair takes at least two bytes.
	hint := min(shots, len(p)/2)
	idx, ns := make([]uint64, 0, hint), make([]uint32, 0, hint)
	var at uint64
	for left := uint64(shots); left > 0 && r.err == nil; {
		d, n := r.uvarint("index"), r.uvarint("count")
		switch {
		case r.err != nil:
		case len(idx) > 0 && d == 0:
			r.fail("index %d repeats", at)
		case d > math.MaxUint64-at || (at+d)>>uint(qubits) != 0:
			r.fail("index past %d qubits", qubits)
		case n == 0 || n > left:
			r.fail("count %d of index %d is not in [1, %d]", n, at+d, left)
		default:
			at += d
			idx, ns = append(idx, at), append(ns, uint32(n))
			left -= n
		}
	}
	if r.err == nil && len(r.p) > 0 {
		r.fail("%d bytes after the counts", len(r.p))
	}
	if r.err != nil {
		return nil, r.err
	}
	return core.TallyRun(idx, ns), nil
}

// ---- JSON records of older builds, replayed only ----

// chunkRecord is the JSON chunk record (recChunkJSON).
type chunkRecord struct {
	ID     string         `json:"id"`
	Chunk  int            `json:"chunk"`
	Shots  int            `json:"shots"`
	Counts map[string]int `json:"counts"`
}

// checkpointRecord is the JSON checkpoint record (recCheckpointJSON).
type checkpointRecord struct {
	ID     string         `json:"id"`
	Done   []int          `json:"done"`
	Counts map[string]int `json:"counts"`
}

// decodeCounts reads a JSON record's counts, decimal basis-index keys, and
// sorts them once into a one-run tally. It refuses counts no job of qubits
// could have committed for shots samples: a key at or past 2^qubits, a
// count that is not positive, or counts that do not sum to shots. A job's
// tally may be dense, indexed by outcome, so a key past the register would
// not merge at all.
func decodeCounts(in map[string]int, qubits, shots int) (*core.Tally, error) {
	type pair struct {
		idx uint64
		n   int
	}
	pairs := make([]pair, 0, len(in))
	sum := 0
	for key, n := range in {
		idx, err := strconv.ParseUint(key, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("job: bad count key %q: %w", key, err)
		}
		if idx>>uint(qubits) != 0 || n < 1 || n > shots {
			return nil, fmt.Errorf("job: count %q: %d is not an outcome of %d qubits drawn in %d shots", key, n, qubits, shots)
		}
		pairs = append(pairs, pair{idx, n})
		sum += n
	}
	if sum != shots {
		return nil, fmt.Errorf("job: counts sum to %d, want %d shots", sum, shots)
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.idx, b.idx) })
	idx, ns := make([]uint64, 0, len(pairs)), make([]uint32, 0, len(pairs))
	for _, p := range pairs {
		if k := len(idx) - 1; k >= 0 && idx[k] == p.idx {
			ns[k] += uint32(p.n) // "3" and "03" are one outcome
			continue
		}
		idx, ns = append(idx, p.idx), append(ns, uint32(p.n))
	}
	return core.TallyRun(idx, ns), nil
}
