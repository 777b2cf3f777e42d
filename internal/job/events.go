package job

// Progress event streaming: each job carries a subscriber list fed one
// frame per chunk completion plus a terminal frame. Frames are cumulative
// snapshots (not deltas), so a slow consumer that misses intermediate
// frames still converges — the hub drops the oldest buffered frame on
// overflow rather than stalling the executor.

import "weaksim/internal/core"

// Event is one NDJSON progress frame.
type Event struct {
	JobID       string `json:"job_id"`
	State       State  `json:"state"`
	ChunksTotal int    `json:"chunks_total"`
	ChunksDone  int    `json:"chunks_done"`
	ShotsDone   int    `json:"shots_done"`
	// Top is the current top-k partial counts (most probable outcomes seen
	// so far), most frequent first.
	Top []TopCount `json:"top,omitempty"`
	// PhaseNS is the cumulative per-phase wall-clock breakdown so far.
	PhaseNS   map[string]int64 `json:"phase_ns,omitempty"`
	ErrorCode string           `json:"error_code,omitempty"`
	Error     string           `json:"error,omitempty"`
	// Terminal marks the stream's final frame.
	Terminal bool `json:"terminal"`
}

// TopCount is one outcome in a frame's partial top-k.
type TopCount struct {
	Bits  string `json:"bits"`
	Count int    `json:"count"`
}

// eventTopK is how many outcomes a progress frame carries.
const eventTopK = 5

// subscriber buffers frames for one events stream.
type subscriber struct {
	ch chan Event
}

// subscriberBuffer is each stream's frame buffer; overflow drops the oldest
// frame (frames are cumulative, so only freshness is lost).
const subscriberBuffer = 32

// push delivers without ever blocking the executor: on a full buffer the
// oldest frame is evicted to make room. The terminal frame therefore always
// lands (it is the newest).
func (s *subscriber) push(ev Event) {
	select {
	case s.ch <- ev:
		return
	default:
	}
	select {
	case <-s.ch:
	default:
	}
	select {
	case s.ch <- ev:
	default:
	}
}

// topCounts extracts the k most frequent outcomes from a tally, formatted
// as bitstrings. Ties break on ascending basis index so frames are
// deterministic for a fixed tally.
func topCounts(counts *core.Tally, qubits, k int) []TopCount {
	if k <= 0 {
		return nil
	}
	type kv struct {
		idx uint64
		n   int
	}
	// best stays sorted, most frequent first: each outcome is inserted at
	// its rank, and whatever falls past k is dropped.
	best := make([]kv, 0, k+1)
	counts.Ascending(func(idx uint64, n int) {
		pos := len(best)
		for pos > 0 && (best[pos-1].n < n || (best[pos-1].n == n && best[pos-1].idx > idx)) {
			pos--
		}
		if pos >= k {
			return
		}
		best = append(best, kv{})
		copy(best[pos+1:], best[pos:])
		best[pos] = kv{idx, n}
		if len(best) > k {
			best = best[:k]
		}
	})
	if len(best) == 0 {
		return nil
	}
	out := make([]TopCount, len(best))
	for i, b := range best {
		out[i] = TopCount{Bits: core.FormatBits(b.idx, qubits), Count: b.n}
	}
	return out
}
