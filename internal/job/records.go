package job

// WAL record payloads (JSON inside the CRC-framed records of wal.go) and the
// count-map codec. JSON keeps the log greppable in the field; integrity and
// atomicity come from the frame layer, not the payload encoding.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"weaksim/internal/core"
)

// chunkRecord marks one chunk's tallies final.
type chunkRecord struct {
	ID     string         `json:"id"`
	Chunk  int            `json:"chunk"`
	Shots  int            `json:"shots"`
	Counts map[string]int `json:"counts"`
}

// stateRecord is a terminal transition.
type stateRecord struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	ErrCode string `json:"err_code,omitempty"`
	Err     string `json:"err,omitempty"`
}

// checkpointRecord is a compaction-time full snapshot of one job's progress.
// On replay it supersedes every earlier chunk record for the job.
type checkpointRecord struct {
	ID     string         `json:"id"`
	Done   []int          `json:"done"`
	Counts map[string]int `json:"counts"`
}

// encodeCounts renders a basis-index tally as a JSON-safe map (decimal
// uint64 keys), in one pass over its ascending outcomes.
func encodeCounts(counts *core.Tally) map[string]int {
	out := make(map[string]int, counts.Len())
	counts.Ascending(func(idx uint64, n int) { out[strconv.FormatUint(idx, 10)] = n })
	return out
}

// decodeCounts is the inverse of encodeCounts: it sorts the decoded
// outcomes once into a one-run tally. It refuses counts no job of qubits
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

// mustRecord marshals a payload into a Record; the payload types above
// marshal unconditionally.
func mustRecord(typ uint8, payload any) Record {
	b, err := json.Marshal(payload)
	if err != nil {
		panic(fmt.Sprintf("job: marshal record type %d: %v", typ, err))
	}
	return Record{Type: typ, Payload: b}
}
