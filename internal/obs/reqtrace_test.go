package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	const valid = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tid, sid, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("valid traceparent rejected")
	}
	if got := tid.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", got)
	}
	if got := sid.String(); got != "00f067aa0ba902b7" {
		t.Errorf("span id = %s", got)
	}
	if got := Traceparent(tid, sid); got != valid {
		t.Errorf("round-trip = %s, want %s", got, valid)
	}

	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // unsupported version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase (spec: lowercase)
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-001", // long flags
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted malformed traceparent %q", h)
		}
	}
}

func TestNewIDsUniqueAndNonZero(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		tid := NewTraceID()
		if tid.IsZero() {
			t.Fatal("zero trace id minted")
		}
		if seen[tid.String()] {
			t.Fatalf("duplicate trace id %s", tid)
		}
		seen[tid.String()] = true
		if NewSpanID().IsZero() {
			t.Fatal("zero span id minted")
		}
	}
}

func TestStartRequestAdoptsInboundTraceID(t *testing.T) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rt := StartRequest(h, nil, nil)
	if got := rt.ID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("inbound trace id not adopted: %s", got)
	}
	rt2 := StartRequest("garbage", nil, nil)
	if rt2.ID().IsZero() {
		t.Error("no trace id minted for invalid traceparent")
	}
	if rt2.ID() == rt.ID() {
		t.Error("minted trace id collides with inbound")
	}
}

func TestRequestTraceSpansAndBreakdown(t *testing.T) {
	rt := StartRequest("", nil, nil)
	sp := StartSpan(nil, rt, PhaseParse)
	time.Sleep(time.Millisecond)
	sp.End(map[string]any{"qubits": 3})
	queue := StartSpan(nil, rt, PhaseQueue).End(nil)
	rt.Event(PhaseSample, "worker", map[string]any{"worker": 0})

	spans := rt.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	bd := rt.PhaseBreakdown()
	if bd[PhaseParse] <= 0 {
		t.Errorf("parse duration missing: %v", bd)
	}
	if bd[PhaseQueue] != queue.Nanoseconds() {
		t.Errorf("queue duration = %d", bd[PhaseQueue])
	}
	if _, ok := bd[PhaseSample]; ok {
		t.Errorf("point event leaked into the phase breakdown: %v", bd)
	}
}

func TestAdoptSharedKeepsSpanIDsAndMarksOrigin(t *testing.T) {
	leader := StartRequest("", nil, nil)
	mark := leader.Mark()
	StartSpan(nil, leader, PhaseFreeze).End(nil)
	shared := leader.SpansSince(mark)
	if len(shared) != 1 {
		t.Fatalf("SpansSince: got %d", len(shared))
	}

	waiter := StartRequest("", nil, nil)
	waiter.AdoptShared(leader.ID(), shared)
	got := waiter.Spans()
	if len(got) != 1 {
		t.Fatalf("waiter spans: %d", len(got))
	}
	if got[0].SpanID != shared[0].SpanID {
		t.Errorf("shared span id changed: %s != %s", got[0].SpanID, shared[0].SpanID)
	}
	if !got[0].Shared {
		t.Error("adopted span not marked shared")
	}
	if got[0].OriginTrace != leader.ID().String() {
		t.Errorf("origin trace = %q", got[0].OriginTrace)
	}
	// Shared spans must not inflate the waiter's own phase accounting.
	if bd := waiter.PhaseBreakdown(); len(bd) != 0 {
		t.Errorf("shared spans counted in breakdown: %v", bd)
	}
}

func TestRequestTraceContextRoundTrip(t *testing.T) {
	rt := StartRequest("", nil, nil)
	ctx := ContextWithTrace(context.Background(), rt)
	if got := TraceFromContext(ctx); got != rt {
		t.Fatal("trace lost in context round trip")
	}
	if got := TraceFromContext(context.Background()); got != nil {
		t.Fatal("phantom trace from bare context")
	}
}

func TestRequestTraceFinishPublishesToRecorder(t *testing.T) {
	rec := NewFlightRecorder(64)
	rt := StartRequest("", rec, nil)
	StartSpan(nil, rt, PhaseParse).End(nil)
	rt.Finish("/v1/sample", 200)

	recs := rec.Snapshot()
	if len(recs) != 2 { // parse span + root request span
		t.Fatalf("recorder got %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.TraceID != rt.ID().String() {
			t.Errorf("record trace = %s, want %s", r.TraceID, rt.ID())
		}
		if r.Name != "/v1/sample" {
			t.Errorf("record name = %s", r.Name)
		}
	}
}

// TestRequestTraceFinishCopiesToStream: a finished request's records reach
// the stream under the request's own trace ID, root span included.
func TestRequestTraceFinishCopiesToStream(t *testing.T) {
	var buf bytes.Buffer
	stream := NewStreamTrace(&buf, 1)
	rt := StartRequest("", nil, stream)
	StartSpan(nil, rt, PhaseParse).End(nil)
	if buf.Len() != 0 {
		t.Fatal("request span reached the stream before Finish")
	}
	rt.Finish("/v1/sample", 200)
	dec := json.NewDecoder(&buf)
	var phases []string
	for dec.More() {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.TraceID != rt.ID().String() {
			t.Errorf("copied record trace = %s, want %s", rec.TraceID, rt.ID())
		}
		phases = append(phases, rec.Phase)
	}
	if len(phases) != 2 || phases[0] != PhaseParse || phases[1] != PhaseServe {
		t.Fatalf("stream got phases %v, want [parse serve]", phases)
	}
}

// TestRequestTraceConcurrentAnnotation exercises concurrent span appends
// from sampling workers under -race.
func TestRequestTraceConcurrentAnnotation(t *testing.T) {
	rt := StartRequest("", nil, nil)
	var wg sync.WaitGroup
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rt.Event(PhaseSample, "worker", map[string]any{"worker": k})
			}
		}(k)
	}
	wg.Wait()
	if got := len(rt.Spans()); got != 1600 {
		t.Fatalf("got %d spans, want 1600", got)
	}
}

// TestRequestTraceDisabledZeroAlloc pins the disabled-tracing request path
// at 0 allocs/op: a context without a trace plus every nil-receiver method
// an instrumented handler would touch.
func TestRequestTraceDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		rt := TraceFromContext(ctx)
		if ctx2 := ContextWithTrace(ctx, rt); ctx2 != ctx {
			t.Fatal("nil trace wrapped the context")
		}
		StartSpan(nil, rt, PhaseParse).End(nil)
		rt.Event(PhaseSample, "worker", nil)
		_ = rt.OpDue(1)
		rt.AdoptShared(TraceID{}, nil)
		_ = rt.Mark()
		_ = rt.SpansSince(0)
		_ = rt.PhaseBreakdown()
		rt.Finish("", 0)
		_ = rt.ID()
	})
	if allocs != 0 {
		t.Fatalf("disabled request-trace path allocates %.1f/op, want 0", allocs)
	}
}

// TestSpanEndZeroAllocWithRegistry: ending an untraced span that feeds a
// registry allocates nothing for every Phase* constant, and the span's
// duration still lands on that phase's phase_<p>_ns counter.
func TestSpanEndZeroAllocWithRegistry(t *testing.T) {
	reg := NewRegistry()
	for _, p := range []string{PhaseBuild, PhaseApply, PhaseFreeze, PhaseSample, PhaseGovern,
		PhaseParse, PhaseHash, PhaseQueue, PhaseEncode, PhaseServe, PhaseSnapshot, PhaseWAL, PhaseVerify} {
		if allocs := testing.AllocsPerRun(100, func() { StartSpan(reg, nil, p).End(nil) }); allocs != 0 {
			t.Errorf("%s: StartSpan(reg, nil, p).End(nil) allocates %.1f/op, want 0", p, allocs)
		}
		if reg.Counter("phase_"+p+"_ns").Value() == 0 {
			t.Errorf("%s: phase_%s_ns counter never advanced", p, p)
		}
	}
	StartSpan(reg, nil, "custom").End(nil)
	if reg.Counter("phase_custom_ns").Value() == 0 {
		t.Error("a phase outside the table lost its counter")
	}
}

func TestTraceparentStringFormat(t *testing.T) {
	rt := StartRequest("", nil, nil)
	h := Traceparent(rt.ID(), rt.Root())
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("bad traceparent %q", h)
	}
	if _, _, ok := ParseTraceparent(h); !ok {
		t.Fatalf("self-minted traceparent does not parse: %q", h)
	}
}
