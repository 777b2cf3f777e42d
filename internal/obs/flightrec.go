package obs

// Flight recorder: an always-on, fixed-size ring of the most recent trace
// records (SpanRecords: request and job spans, process events, and trip
// markers), dumped as JSONL when something goes wrong — a recovered
// panic, an injected fault, an SLO fast-burn breach. Aviation flight
// recorders answer "what were the last N seconds like" after the fact;
// here the chaos outcomes of the fault-injection matrix become post-hoc
// debuggable artifacts instead of a counter that merely incremented.
//
// Concurrency: writers claim a slot with one atomic increment and then take
// only that slot's mutex, so concurrent request finishes never contend on a
// global lock (the ring is "lock-efficient", not lock-free: readers taking
// a consistent snapshot is worth two dozen uncontended slot locks). A nil
// *FlightRecorder is a safe no-op everywhere.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"weaksim/internal/atomicfile"
)

// DefaultFlightSlots is the default ring capacity (records, not requests; a
// request publishes one record per span).
const DefaultFlightSlots = 4096

type flightSlot struct {
	mu  sync.Mutex
	rec SpanRecord
	set bool
}

// FlightRecorder is the ring. Construct with NewFlightRecorder.
type FlightRecorder struct {
	slots []flightSlot
	head  atomic.Uint64 // next sequence number (1-based after first Add)

	dir      string // dump directory ("" = in-memory / HTTP dumps only)
	minGap   time.Duration
	lastDump atomic.Int64 // UnixNano of the last disk dump, for rate limiting
	dumpSeq  atomic.Uint64

	tripCount atomic.Uint64
	trips     *Counter // optional trip counter mirror (e.g. a registry counter)
}

// FlightOption configures a FlightRecorder.
type FlightOption func(*FlightRecorder)

// WithFlightDir sets the directory trip dumps are written to (created on
// first dump). Empty keeps dumps HTTP-only.
func WithFlightDir(dir string) FlightOption {
	return func(f *FlightRecorder) { f.dir = dir }
}

// WithFlightDumpGap sets the minimum interval between disk dumps (default
// 5s; 0 disables rate limiting — used by tests). The ring itself always
// records; only file writes are throttled.
func WithFlightDumpGap(d time.Duration) FlightOption {
	return func(f *FlightRecorder) { f.minGap = d }
}

// WithFlightTrips mirrors trip counts into c (e.g. a registry counter).
func WithFlightTrips(c *Counter) FlightOption {
	return func(f *FlightRecorder) { f.trips = c }
}

// NewFlightRecorder returns a ring with the given capacity (<= 0 selects
// DefaultFlightSlots).
func NewFlightRecorder(slots int, opts ...FlightOption) *FlightRecorder {
	if slots <= 0 {
		slots = DefaultFlightSlots
	}
	f := &FlightRecorder{slots: make([]flightSlot, slots), minGap: 5 * time.Second}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Record appends rec to the ring, overwriting the oldest entry when full.
// It numbers rec (Seq) and stamps a missing StartNS with the current time.
// Safe for concurrent use; a nil recorder is a no-op.
func (f *FlightRecorder) Record(rec SpanRecord) {
	if f == nil {
		return
	}
	rec.Seq = f.head.Add(1)
	if rec.StartNS == 0 {
		rec.StartNS = time.Now().UnixNano()
	}
	slot := &f.slots[(rec.Seq-1)%uint64(len(f.slots))]
	slot.mu.Lock()
	slot.rec = rec
	slot.set = true
	slot.mu.Unlock()
}

// Snapshot copies the ring contents in sequence order (oldest first).
func (f *FlightRecorder) Snapshot() []SpanRecord {
	if f == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		s.mu.Lock()
		if s.set {
			out = append(out, s.rec)
		}
		s.mu.Unlock()
	}
	// Slot i holds a strictly increasing sequence over time, but a snapshot
	// taken mid-wrap sees mixed generations; an insertion sort on Seq (the
	// ring is almost sorted already) restores global order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// WriteJSONL dumps the ring to w, one JSON record per line, oldest first.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range f.Snapshot() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Trip records a trip marker (reason + attrs) in the ring and, when a dump
// directory is configured and the rate limit allows, writes the whole ring
// to flight-<n>.jsonl there. It returns the dump path ("" when no file was
// written). Trip never fails the caller: file errors are reported in the
// returned error for logging but the ring state is always intact.
func (f *FlightRecorder) Trip(reason string, attrs map[string]any) (string, error) {
	if f == nil {
		return "", nil
	}
	f.tripCount.Add(1)
	f.trips.Inc()
	f.Record(SpanRecord{Kind: "trip", Name: reason, Attrs: attrs})
	if f.dir == "" {
		return "", nil
	}
	now := time.Now().UnixNano()
	last := f.lastDump.Load()
	if f.minGap > 0 && now-last < f.minGap.Nanoseconds() {
		return "", nil
	}
	if !f.lastDump.CompareAndSwap(last, now) {
		return "", nil // another trip is dumping concurrently
	}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", err
	}
	// The timestamp keeps names unique across recorders (and restarts)
	// sharing one directory; the per-recorder sequence keeps them unique
	// within a burst.
	path := filepath.Join(f.dir, fmt.Sprintf("flight-%d-%d.jsonl", now, f.dumpSeq.Add(1)))
	if err := atomicfile.Write(path, f.WriteJSONL); err != nil {
		return "", err
	}
	return path, nil
}

// Trips returns the number of trips recorded so far.
func (f *FlightRecorder) Trips() uint64 {
	if f == nil {
		return 0
	}
	return f.tripCount.Load()
}
