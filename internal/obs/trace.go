package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Phase labels follow the paper's weak-simulation pipeline (Fig. 2):
// strong simulation builds and applies operator DDs, the freeze stage
// converts the final live diagram into an immutable flat-array snapshot with
// the downstream/upstream masses and branch probabilities precomputed
// inline (paper Section IV-B), and each shot is a root-to-terminal walk over
// the frozen arrays. The govern phase covers the degradation ladder of
// weaksim.SimulateAuto.
const (
	PhaseBuild  = "build"
	PhaseApply  = "apply"
	PhaseFreeze = "freeze"
	PhaseSample = "sample"
	PhaseGovern = "govern"

	// Serving phases (internal/serve): PhaseParse covers request decoding
	// and QASM parsing, PhaseQueue the time a simulation job waits in the
	// bounded admission queue before a worker picks it up, and PhaseServe
	// whole-request handling on the daemon.
	PhaseParse = "parse"
	PhaseQueue = "queue"
	PhaseServe = "serve"

	// PhaseVerify covers DD invariant self-checks: dd.CheckInvariants at
	// freeze time and dd.Snapshot.Verify on every snapshot load.
	PhaseVerify = "verify"
)

// Event is one structured trace record. Span events carry a duration; point
// events do not. Events round-trip through encoding/json one per line
// (JSONL).
type Event struct {
	// TS is the event end time in nanoseconds since the Unix epoch.
	TS int64 `json:"ts"`
	// Seq is a monotonically increasing per-tracer sequence number.
	Seq uint64 `json:"seq"`
	// Kind is "span" for timed regions and "event" for point events.
	Kind string `json:"kind"`
	// Phase is one of the Phase* labels.
	Phase string `json:"phase,omitempty"`
	// Name identifies the operation within the phase.
	Name string `json:"name"`
	// DurNS is the span duration in nanoseconds (spans only).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Attrs carries free-form structured attributes.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Sink consumes trace events. Implementations must be safe for use from the
// single simulation goroutine plus any exporter goroutine.
type Sink interface {
	Emit(*Event)
}

// JSONLSink writes one JSON object per line. Safe for concurrent Emit.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes the event as one JSON line; encoding errors are dropped
// (telemetry must never fail the simulation).
func (s *JSONLSink) Emit(e *Event) {
	s.mu.Lock()
	_ = s.enc.Encode(e)
	s.mu.Unlock()
}

// CollectSink buffers events in memory, for tests and for building
// in-process summaries.
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends a copy of the event.
func (s *CollectSink) Emit(e *Event) {
	s.mu.Lock()
	s.events = append(s.events, *e)
	s.mu.Unlock()
}

// Events returns a copy of everything collected so far.
func (s *CollectSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Tracer emits structured events to a sink. A nil *Tracer is fully inert:
// Start returns a zero Span whose End is a no-op, Event does nothing, and
// neither reads the clock nor allocates — the disabled fast path is a single
// nil check.
type Tracer struct {
	sink  Sink
	every int
	seq   atomic.Uint64
}

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// WithEvery throttles op-granularity events (EmitThrottled): only one in
// every n is emitted. Phase spans and governance events are never throttled.
// n < 1 is treated as 1.
func WithEvery(n int) TracerOption {
	return func(t *Tracer) {
		if n < 1 {
			n = 1
		}
		t.every = n
	}
}

// NewTracer returns a tracer writing to sink. A nil sink yields a nil
// tracer, so callers can pass through an optional sink unconditionally.
func NewTracer(sink Sink, opts ...TracerOption) *Tracer {
	if sink == nil {
		return nil
	}
	t := &Tracer{sink: sink, every: 1}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether events will actually be emitted.
func (t *Tracer) Enabled() bool { return t != nil }

// Every returns the op-event throttle interval (1 for a nil tracer, so
// modulo checks in drivers stay well-defined).
func (t *Tracer) Every() int {
	if t == nil || t.every < 1 {
		return 1
	}
	return t.every
}

// Event emits a point event.
func (t *Tracer) Event(phase, name string, attrs map[string]any) {
	if t == nil {
		return
	}
	t.sink.Emit(&Event{
		TS:    time.Now().UnixNano(),
		Seq:   t.seq.Add(1),
		Kind:  "event",
		Phase: phase,
		Name:  name,
		Attrs: attrs,
	})
}

// EmitThrottled emits a point event only when i is a multiple of the
// tracer's every-interval — the op-granularity firehose control.
func (t *Tracer) EmitThrottled(i int, phase, name string, attrs map[string]any) {
	if t == nil || i%t.Every() != 0 {
		return
	}
	t.Event(phase, name, attrs)
}

// Span is an in-flight timed region. The zero Span (from a nil tracer) is
// inert. Spans are values: starting and ending one performs no heap
// allocation beyond the emitted event itself.
type Span struct {
	t           *Tracer
	phase, name string
	start       time.Time
}

// Start opens a span. On a nil tracer it returns the zero Span without
// reading the clock.
func (t *Tracer) Start(phase, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, phase: phase, name: name, start: time.Now()}
}

// End closes the span and emits it. attrs may be nil.
func (sp Span) End(attrs map[string]any) {
	if sp.t == nil {
		return
	}
	now := time.Now()
	sp.t.sink.Emit(&Event{
		TS:    now.UnixNano(),
		Seq:   sp.t.seq.Add(1),
		Kind:  "span",
		Phase: sp.phase,
		Name:  sp.name,
		DurNS: now.Sub(sp.start).Nanoseconds(),
		Attrs: attrs,
	})
}
