package obs

// Tracing: one span model from the library to the daemon. A trace is a
// list of SpanRecords with W3C-compatible trace/span IDs, carried through
// the pipeline via context.Context, and StartSpan is the one call that times
// a phase: its End feeds the phase_<p>_ns counter and the owning trace from
// a single clock reading.
//
// The records reach three outputs, all of the same type:
//
//   - a request or job trace keeps them, and /v1/sample?debug=1 echoes them
//     with the per-phase sums, so a slow request is attributable to parse vs
//     queue wait vs strong simulation vs freeze vs sampling without
//     correlating process-wide logs;
//   - Finish publishes them into the flight recorder's ring;
//   - a stream trace (NewStreamTrace, the library's JSONL tracer) writes
//     each record as it ends and keeps none, and Finish can copy a request's
//     records to one.
//
// Design rules mirror the rest of the package:
//
//   - Disabled means free. StartSpan with a nil registry and a nil trace,
//     and every method on a nil *RequestTrace, performs no allocation and no
//     time.Now call; TraceFromContext on a context without a trace is a
//     single Value lookup. Pinned at 0 allocs/op by
//     TestRequestTraceDisabledZeroAlloc and TestDisabledPathZeroAllocs.
//   - Single-flight friendly. Spans recorded while computing a shared
//     flight can be re-published into every coalesced waiter's trace via
//     AdoptShared: the waiters keep their own trace IDs but reference the
//     same span ID (Shared=true, OriginTrace set), which is exactly the
//     shape the W3C "links" concept models.
//   - Appends are mutex-guarded, so concurrent sampling workers may
//     annotate one request's trace safely.

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 16-byte W3C trace identifier (non-zero when valid).
type TraceID [16]byte

// SpanID is an 8-byte W3C span identifier (non-zero when valid).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ID generation: a SplitMix64 stream over a process-unique seed. The IDs
// need uniqueness, not unpredictability, so this stays allocation-free and
// faster than crypto/rand; the seed folds in the process start time so two
// daemon instances do not collide.
var (
	idCounter atomic.Uint64
	idSeed    = uint64(time.Now().UnixNano())*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
)

func nextID64() uint64 {
	x := idSeed + idCounter.Add(1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// NewTraceID mints a fresh non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	putU64(t[:8], nextID64())
	putU64(t[8:], nextID64())
	return t
}

// NewSpanID mints a fresh non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	putU64(s[:], nextID64())
	return s
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// ParseTraceparent parses a W3C trace-context header
// (https://www.w3.org/TR/trace-context/):
//
//	00-<32 lowercase hex trace-id>-<16 lowercase hex parent-id>-<2 hex flags>
//
// It returns ok=false for anything malformed, an unsupported version, or an
// all-zero trace or parent ID — callers then mint fresh IDs instead of
// propagating garbage.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var t TraceID
	var s SpanID
	// 2 + 1 + 32 + 1 + 16 + 1 + 2 = 55 bytes exactly for version 00.
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return t, s, false
	}
	if !hexDecode(t[:], h[3:35]) || !hexDecode(s[:], h[36:52]) || !isHexLower(h[53:]) {
		return TraceID{}, SpanID{}, false
	}
	if t.IsZero() || s.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return t, s, true
}

// Traceparent renders a version-00 traceparent header with the sampled flag
// set, for propagating a request trace to downstream services.
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// hexDecode fills dst from the lowercase-hex src, rejecting uppercase (the
// W3C spec requires lowercase) and non-hex bytes.
func hexDecode(dst []byte, src string) bool {
	if len(src) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := hexVal(src[2*i])
		lo, ok2 := hexVal(src[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

func isHexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		if _, ok := hexVal(s[i]); !ok {
			return false
		}
	}
	return true
}

// SpanRecord is the package's one record type: a finished span, a point
// event, or (in the flight ring only) a trip marker. A request trace keeps
// its records for the debug=1 echo, the flight recorder keeps the most
// recent ones in its ring, and a stream trace writes each one as a JSON
// line.
type SpanRecord struct {
	// Seq numbers the records of one output (the flight ring or a stream)
	// in write order; 0 in a request trace's own list.
	Seq uint64 `json:"seq,omitempty"`
	// TraceID is the owning trace. Records get it when they are published
	// to the flight ring or written to a stream; ring entries that belong
	// to no trace (trips, process events) have none.
	TraceID string `json:"trace_id,omitempty"`
	// SpanID identifies the span. Coalesced requests that shared one
	// strong simulation carry the SAME span ID for the shared phases.
	SpanID string `json:"span_id"`
	// Phase is the pipeline phase label (obs.Phase*).
	Phase string `json:"phase"`
	// Kind is "span" for timed regions, "event" for point annotations, and
	// "trip" for flight-recorder trip markers.
	Kind string `json:"kind"`
	// Name identifies an event ("op", "gc", a govern step), a trip reason,
	// or the endpoint of a request's root span.
	Name string `json:"name,omitempty"`
	// StartNS is the span start (the event time) in nanoseconds since the
	// Unix epoch.
	StartNS int64 `json:"start_ns,omitempty"`
	// DurNS is the span duration (0 for events).
	DurNS int64 `json:"dur_ns"`
	// Shared marks a span executed once but observed by several requests
	// (single-flight coalescing); OriginTrace is the trace that ran it.
	Shared      bool   `json:"shared,omitempty"`
	OriginTrace string `json:"origin_trace,omitempty"`
	// Attrs carries free-form structured attributes.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// RequestTrace is a trace: the spans and events of one request, one batch
// job, or one library run. Construct a request trace with StartRequest,
// carry it through the pipeline with ContextWithTrace / TraceFromContext,
// and close it with Finish; a stream trace (NewStreamTrace) writes every
// record as it ends instead of keeping it. All methods are safe for
// concurrent use and nil-safe no-ops on a nil receiver.
type RequestTrace struct {
	id       TraceID
	parent   SpanID // inbound traceparent parent span (zero when minted)
	root     SpanID
	start    time.Time
	recorder *FlightRecorder
	stream   *RequestTrace // receives a copy of every record on Finish

	// enc makes the trace a stream: records are written as they end and
	// never retained. every throttles op events (see OpDue).
	enc   *json.Encoder
	every int

	mu    sync.Mutex
	seq   uint64
	spans []SpanRecord
	sums  map[string]int64 // owned span time per phase, kept as records land
}

// StartRequest opens a request trace. traceparent, when a valid W3C header,
// supplies the trace ID (the inbound parent span is retained for the
// flight-recorder record); otherwise fresh IDs are minted. On Finish every
// record is published to rec and copied to stream; either may be nil.
func StartRequest(traceparent string, rec *FlightRecorder, stream *RequestTrace) *RequestTrace {
	rt := &RequestTrace{root: NewSpanID(), start: time.Now(), recorder: rec, stream: stream, every: 1}
	if tid, pid, ok := ParseTraceparent(traceparent); ok {
		rt.id, rt.parent = tid, pid
	} else {
		rt.id = NewTraceID()
	}
	return rt
}

// NewStreamTrace returns a trace that writes each record to w as one JSON
// line the moment it ends, and retains nothing: a million-op run costs no
// memory for its op events. every throttles op events (see OpDue); an
// every below 1 is treated as 1. A nil w yields a nil (disabled) trace.
func NewStreamTrace(w io.Writer, every int) *RequestTrace {
	if w == nil {
		return nil
	}
	if every < 1 {
		every = 1
	}
	return &RequestTrace{id: NewTraceID(), enc: json.NewEncoder(w), every: every}
}

// ID returns the trace ID (zero for a nil trace).
func (rt *RequestTrace) ID() TraceID {
	if rt == nil {
		return TraceID{}
	}
	return rt.id
}

// Root returns the root span ID (zero for a nil trace).
func (rt *RequestTrace) Root() SpanID {
	if rt == nil {
		return SpanID{}
	}
	return rt.root
}

// OpDue is the op-event throttle: it reports whether a driver that has
// just applied its applied-th operation owes an op event — whether applied
// is a multiple of the trace's every interval. Request traces use an
// interval of 1; a nil trace is never due.
func (rt *RequestTrace) OpDue(applied int) bool {
	return rt != nil && applied%rt.every == 0
}

// Span is an in-flight phase span, opened by StartSpan. The zero Span is
// inert.
type Span struct {
	reg   *Registry
	rt    *RequestTrace
	phase string
	start time.Time
}

// StartSpan opens a phase span: the one way a phase is timed. End adds the
// duration to the registry's phase_<phase>_ns counter and appends the span
// to the trace; either may be nil. With both nil it returns the inert zero
// Span without reading the clock or allocating.
func StartSpan(reg *Registry, rt *RequestTrace, phase string) Span {
	if reg == nil && rt == nil {
		return Span{}
	}
	return Span{reg: reg, rt: rt, phase: phase, start: time.Now()}
}

// phaseCounters holds each Phase* constant's phase_<p>_ns counter name,
// built once, so ending a span concatenates no strings.
var phaseCounters = func() map[string]string {
	m := map[string]string{}
	for _, p := range []string{PhaseBuild, PhaseApply, PhaseFreeze, PhaseSample, PhaseGovern,
		PhaseParse, PhaseHash, PhaseQueue, PhaseEncode, PhaseServe, PhaseSnapshot, PhaseWAL, PhaseVerify} {
		m[p] = "phase_" + p + "_ns"
	}
	return m
}()

// phaseCounter returns phase's counter name: the table's, or one built for
// a phase outside it.
func phaseCounter(phase string) string {
	if name, ok := phaseCounters[phase]; ok {
		return name
	}
	return "phase_" + phase + "_ns"
}

// End closes the span and returns its duration (0 for the inert span), the
// one clock reading behind both the counter and the record. attrs may be
// nil.
func (sp Span) End(attrs map[string]any) time.Duration {
	if sp.reg == nil && sp.rt == nil {
		return 0
	}
	dur := time.Since(sp.start)
	if sp.reg != nil {
		sp.reg.Counter(phaseCounter(sp.phase)).Add(uint64(dur.Nanoseconds()))
	}
	if sp.rt != nil {
		sp.rt.append(SpanRecord{
			SpanID:  NewSpanID().String(),
			Phase:   sp.phase,
			Kind:    "span",
			StartNS: sp.start.UnixNano(),
			DurNS:   dur.Nanoseconds(),
			Attrs:   attrs,
		})
	}
	return dur
}

// Event records a point annotation (no duration; excluded from phase-sum
// accounting).
func (rt *RequestTrace) Event(phase, name string, attrs map[string]any) {
	if rt == nil {
		return
	}
	rt.append(SpanRecord{
		SpanID:  NewSpanID().String(),
		Phase:   phase,
		Kind:    "event",
		Name:    name,
		StartNS: time.Now().UnixNano(),
		Attrs:   attrs,
	})
}

func (rt *RequestTrace) append(rec SpanRecord) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rec.Kind == "span" && !rec.Shared {
		if rt.sums == nil {
			rt.sums = make(map[string]int64, 8)
		}
		rt.sums[rec.Phase] += rec.DurNS
	}
	if rt.enc == nil {
		rt.spans = append(rt.spans, rec)
		return
	}
	rt.seq++
	rec.Seq = rt.seq
	if rec.TraceID == "" {
		rec.TraceID = rt.id.String()
	}
	_ = rt.enc.Encode(&rec) // telemetry must never fail the caller
}

// Mark returns the current span count; SpansSince(Mark()) later yields the
// records appended in between. Used by the single-flight leader to extract
// exactly the simulation spans for sharing with coalesced waiters.
func (rt *RequestTrace) Mark() int {
	if rt == nil {
		return 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.spans)
}

// SpansSince copies the records appended at or after mark (none for a
// stream, which keeps nothing).
func (rt *RequestTrace) SpansSince(mark int) []SpanRecord {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if mark < 0 {
		mark = 0
	}
	if mark >= len(rt.spans) {
		return nil
	}
	out := make([]SpanRecord, len(rt.spans)-mark)
	copy(out, rt.spans[mark:])
	return out
}

// Spans copies every record so far.
func (rt *RequestTrace) Spans() []SpanRecord { return rt.SpansSince(0) }

// AdoptShared appends copies of spans into this trace marked Shared, with
// OriginTrace set to origin when it differs from this trace's own ID. A
// coalesced waiter calls this with the flight leader's simulation spans: the
// waiter keeps its own trace ID while its breakdown references the shared
// span IDs (one freeze ran; N requests observed it).
func (rt *RequestTrace) AdoptShared(origin TraceID, spans []SpanRecord) {
	if rt == nil || len(spans) == 0 {
		return
	}
	originHex := ""
	if origin != rt.id && !origin.IsZero() {
		originHex = origin.String()
	}
	for _, rec := range spans {
		rec.Shared = true
		rec.OriginTrace = originHex
		rt.append(rec)
	}
}

// PhaseBreakdown returns the owned (non-shared) span time per phase,
// restricted to phases when any are given. The sums are kept as records
// land, so reading them never rescans the trace. The sequential pipeline
// phases tile a request, so for a cold request the values sum to
// (approximately) the request wall time.
func (rt *RequestTrace) PhaseBreakdown(phases ...string) map[string]int64 {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int64, len(rt.sums))
	if len(phases) == 0 {
		for p, ns := range rt.sums {
			out[p] = ns
		}
		return out
	}
	for _, p := range phases {
		if ns, ok := rt.sums[p]; ok {
			out[p] = ns
		}
	}
	return out
}

// Finish closes the trace: the root span, named after the endpoint, is
// appended, and every record is published to the flight recorder and
// copied to the stream given to StartRequest, stamped with the trace ID
// (unnamed records take the endpoint's name). name is the endpoint, status
// the HTTP status code.
func (rt *RequestTrace) Finish(name string, status int) {
	if rt == nil {
		return
	}
	rt.append(SpanRecord{
		SpanID:  rt.root.String(),
		Phase:   PhaseServe,
		Kind:    "span",
		Name:    name,
		StartNS: rt.start.UnixNano(),
		DurNS:   time.Since(rt.start).Nanoseconds(),
		Attrs:   map[string]any{"endpoint": name, "status": status},
	})
	if rt.recorder == nil && rt.stream == nil {
		return
	}
	trace := rt.id.String()
	for _, rec := range rt.Spans() {
		rec.TraceID = trace
		if rec.Name == "" {
			rec.Name = name
		}
		rt.recorder.Record(rec)
		if rt.stream != nil {
			rt.stream.append(rec)
		}
	}
}

// traceKey is the context key for the request trace.
type traceKey struct{}

// ContextWithTrace attaches rt to ctx. A nil rt returns ctx unchanged, so
// the disabled path allocates nothing.
func ContextWithTrace(ctx context.Context, rt *RequestTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, rt)
}

// TraceFromContext returns the request trace attached to ctx, or nil. The
// nil return composes with every nil-safe method on RequestTrace, so
// instrumentation sites need no conditional.
func TraceFromContext(ctx context.Context) *RequestTrace {
	rt, _ := ctx.Value(traceKey{}).(*RequestTrace)
	return rt
}
