package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCounterExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	for i := 0; i < 100; i++ {
		c.Inc()
	}
	c.Add(23)
	if got := c.Value(); got != 123 {
		t.Fatalf("counter = %d, want 123", got)
	}
	c.Set(7)
	if got := c.Value(); got != 7 {
		t.Fatalf("after Set: counter = %d, want 7", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("Counter is not get-or-create stable")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(5)
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax lowered the gauge: %d", got)
	}
	g.SetMax(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("SetMax did not raise the gauge: %d", got)
	}
}

func TestHistogramBucketsAndMonotoneSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 100, 1000})
	samples := []float64{1, 5, 10, 11, 99, 100, 500, 5000}
	var sum float64
	for _, v := range samples {
		h.Observe(v)
		sum += v
	}
	if got := h.Count(); got != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", got, len(samples))
	}
	if got := h.Sum(); got != sum {
		t.Fatalf("sum = %g, want %g", got, sum)
	}
	s := h.Snapshot()
	if len(s.Cumulative) != len(s.Bounds)+1 {
		t.Fatalf("cumulative has %d entries for %d bounds", len(s.Cumulative), len(s.Bounds))
	}
	// Bounds are inclusive upper bounds: <=10 → 3, <=100 → 6, <=1000 → 7, +Inf → 8.
	want := []uint64{3, 6, 7, 8}
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (full: %v)", i, s.Cumulative[i], w, s.Cumulative)
		}
	}
	for i := 1; i < len(s.Cumulative); i++ {
		if s.Cumulative[i] < s.Cumulative[i-1] {
			t.Fatalf("cumulative not monotone at %d: %v", i, s.Cumulative)
		}
	}
	if s.Cumulative[len(s.Cumulative)-1] != s.Count {
		t.Fatalf("+Inf bucket %d != count %d", s.Cumulative[len(s.Cumulative)-1], s.Count)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", OpLatencyBounds)
	h.ObserveDuration(2 * time.Microsecond)
	if h.Count() != 1 || h.Sum() != 2000 {
		t.Fatalf("count=%d sum=%g, want 1/2000", h.Count(), h.Sum())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(3)
	r.Gauge("g").Set(-4)
	r.Histogram("h", []float64{1, 2}).Observe(1.5)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c_total"] != 3 || s.Gauges["g"] != -4 || s.Histograms["h"].Count != 1 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
}

func TestTraceEventJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewStreamTrace(&buf, 1)
	tr.Event(PhaseApply, "op", map[string]any{"applied": 7})
	StartSpan(nil, tr, PhaseBuild).End(map[string]any{"ops": 3})

	sc := bufio.NewScanner(&buf)
	var events []SpanRecord
	for sc.Scan() {
		var e SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Kind != "event" || events[0].Phase != PhaseApply || events[0].Name != "op" {
		t.Fatalf("event 0 mismatch: %+v", events[0])
	}
	if got := events[0].Attrs["applied"]; got != float64(7) {
		t.Fatalf("attrs round-trip: %v", got)
	}
	if events[1].Kind != "span" || events[1].Phase != PhaseBuild || events[1].DurNS < 0 || events[1].StartNS == 0 {
		t.Fatalf("event 1 mismatch: %+v", events[1])
	}
	if events[1].Seq <= events[0].Seq {
		t.Fatalf("sequence not monotone: %d then %d", events[0].Seq, events[1].Seq)
	}
	for _, e := range events {
		if e.TraceID != tr.ID().String() || e.SpanID == "" {
			t.Fatalf("record %+v not stamped with trace %s and a span ID", e, tr.ID())
		}
	}
	// A stream writes and forgets: nothing is retained.
	if got := tr.Spans(); got != nil {
		t.Fatalf("stream retained %d records", len(got))
	}
}

func TestTracerThrottle(t *testing.T) {
	var buf bytes.Buffer
	tr := NewStreamTrace(&buf, 16)
	due := 0
	for i := 1; i <= 64; i++ {
		if tr.OpDue(i) {
			due++
			tr.Event(PhaseApply, "op", nil)
		}
	}
	if due != 4 {
		t.Fatalf("throttled to %d events, want 4", due)
	}
	// Spans and plain events are never throttled.
	tr.Event(PhaseGovern, "degrade", nil)
	StartSpan(nil, tr, PhaseSample).End(nil)
	if got := strings.Count(buf.String(), "\n"); got != 6 {
		t.Fatalf("unthrottled events got dropped: %d lines, want 6", got)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *RequestTrace
	if tr.OpDue(1) {
		t.Fatal("nil trace owes op events")
	}
	tr.Event(PhaseApply, "op", nil)
	if d := StartSpan(nil, tr, PhaseBuild).End(nil); d != 0 {
		t.Fatalf("inert span measured %v", d)
	}
	if NewStreamTrace(nil, 1) != nil {
		t.Fatal("NewStreamTrace(nil writer) should return nil")
	}
}

// TestDisabledPathZeroAllocs pins the "disabled means free" contract: every
// telemetry call on nil receivers must be allocation-free.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var (
		r  *Registry
		c  *Counter
		g  *Gauge
		h  *Histogram
		tr *RequestTrace
	)
	cases := map[string]func(){
		"counter": func() { c.Inc(); c.Add(2); _ = c.Value() },
		"gauge":   func() { g.Set(1); g.Add(1); g.SetMax(9); _ = g.Value() },
		"histogram": func() {
			h.Observe(1)
			h.ObserveDuration(time.Microsecond)
			_ = h.Count()
		},
		"registry": func() {
			_ = r.Counter("x")
			_ = r.Gauge("y")
			_ = r.Histogram("z", nil)
		},
		"tracer": func() {
			tr.Event(PhaseApply, "op", nil)
			_ = tr.OpDue(1)
		},
		"span": func() { StartSpan(nil, nil, PhaseApply).End(nil) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the disabled path, want 0", name, allocs)
		}
	}
}

// TestStartPhaseAccumulates: one span feeds the registry counter and the
// trace from the same clock reading.
func TestStartPhaseAccumulates(t *testing.T) {
	r := NewRegistry()
	tr := StartRequest("", nil, nil)
	sp := StartSpan(r, tr, PhaseApply)
	time.Sleep(time.Millisecond)
	dur := sp.End(nil)
	got := r.Counter("phase_apply_ns").Value()
	if got == 0 || got != uint64(dur.Nanoseconds()) {
		t.Fatalf("phase accumulator = %d, span measured %v", got, dur)
	}
	evs := tr.Spans()
	if len(evs) != 1 || evs[0].Kind != "span" || evs[0].Phase != PhaseApply || evs[0].DurNS != dur.Nanoseconds() {
		t.Fatalf("span not recorded with the counted duration: %+v", evs)
	}
	// Each output alone works too.
	StartSpan(r, nil, PhaseApply).End(nil)
	StartSpan(nil, tr, PhaseApply).End(nil)
	if r.Counter("phase_apply_ns").Value() <= got || len(tr.Spans()) != 2 {
		t.Fatal("a span with one output dropped its duration")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total").Add(5)
	r.Gauge("live").Set(12)
	r.Histogram("lat_ns", []float64{10, 100}).Observe(50)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE ops_total counter",
		"ops_total 5",
		"# TYPE live gauge",
		"live 12",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="10"} 0`,
		`lat_ns_bucket{le="100"} 1`,
		`lat_ns_bucket{le="+Inf"} 1`,
		"lat_ns_sum 50",
		"lat_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Add(9)
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "hits_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if snap.Counters["hits_total"] != 9 {
		t.Fatalf("/metrics.json counter = %d", snap.Counters["hits_total"])
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	name := fmt.Sprintf("obs_test_%d", time.Now().UnixNano())
	r.PublishExpvar(name)
	r.PublishExpvar(name) // must not panic on duplicate publish
}
