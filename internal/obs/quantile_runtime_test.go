package obs

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestQuantileInterpolation pins the linear-interpolation math: a rank
// landing in bucket (lo, hi] with c observations and b of the cumulative
// count below lo estimates lo + (hi-lo)·(rank-b)/c.
func TestQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{10, 20, 40})
	// 4 observations in (0,10], 4 in (10,20], 2 in (20,40].
	for _, v := range []float64{1, 2, 3, 4, 11, 12, 13, 14, 25, 30} {
		h.Observe(v)
	}
	s := h.Snapshot()
	cases := []struct {
		q    float64
		want float64
	}{
		{0.0, 0},    // rank 0 → lower edge of the first bucket
		{0.2, 5},    // rank 2 of 4 in (0,10] → 10·(2/4)
		{0.4, 10},   // rank 4 → exactly the first bound
		{0.5, 12.5}, // rank 5 → 10 + 10·(1/4)
		{0.8, 20},   // rank 8 → exactly the second bound
		{0.9, 30},   // rank 9 → 20 + 20·(1/2)
		{1.0, 40},   // rank 10 → upper edge of the last finite bucket
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%.2f) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g", got)
	}
	r := NewRegistry()
	h := r.Histogram("inf", []float64{10})
	h.Observe(5)
	h.Observe(1e9) // +Inf bucket
	s := h.Snapshot()
	if got := s.Quantile(0.99); got != 10 {
		t.Errorf("+Inf-bucket quantile = %g, want clamp to 10", got)
	}
	if got := s.Quantile(-1); got != 0 {
		t.Errorf("q<0 = %g", got)
	}
	if got := s.Quantile(2); got != 10 {
		t.Errorf("q>1 = %g, want clamp", got)
	}
	// All mass in one bucket: the median interpolates to the midpoint.
	r2 := NewRegistry()
	h2 := r2.Histogram("one", []float64{100})
	for i := 0; i < 10; i++ {
		h2.Observe(50)
	}
	if got := h2.Snapshot().Quantile(0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("single-bucket median = %g, want 50", got)
	}
}

func TestCaptureRuntime(t *testing.T) {
	r := NewRegistry()
	runtime.GC() // guarantee at least one completed cycle
	CaptureRuntime(r)
	s := r.Snapshot()
	if s.Gauges["go_heap_alloc_bytes"] <= 0 {
		t.Error("heap alloc gauge not captured")
	}
	if s.Gauges["go_goroutines"] <= 0 {
		t.Error("goroutine gauge not captured")
	}
	if s.Gauges["go_gomaxprocs"] <= 0 {
		t.Error("gomaxprocs gauge not captured")
	}
	if s.Counters["go_gc_runs_total"] == 0 {
		t.Error("gc runs counter not captured")
	}
	if s.Histograms["go_gc_pause_ns"].Count == 0 {
		t.Error("gc pause histogram empty after a forced GC")
	}
	// A second capture with no new GC must not re-feed old pauses.
	before := r.Snapshot().Histograms["go_gc_pause_ns"].Count
	CaptureRuntime(r)
	after := r.Snapshot().Histograms["go_gc_pause_ns"].Count
	if after < before {
		t.Errorf("pause count went backwards: %d -> %d", before, after)
	}
	runtime.GC()
	CaptureRuntime(r)
	if got := r.Snapshot().Histograms["go_gc_pause_ns"].Count; got <= after {
		t.Errorf("new GC pause not captured: %d -> %d", after, got)
	}
	CaptureRuntime(nil) // nil-safe
}

// TestWritePrometheusHelpAndOrdering verifies that described metrics emit
// `# HELP` ahead of `# TYPE` and that repeated scrapes render byte-identical
// output (stable ordering).
func TestWritePrometheusHelpAndOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve_requests_total").Add(3)
	r.Counter("zz_undocumented_total").Add(1)
	r.Gauge("serve_inflight").Set(2)
	r.Histogram("go_gc_pause_ns", []float64{1e6, 1e9}).Observe(5e5)

	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes differ — ordering unstable")
	}
	out := a.String()
	wantHelp := "# HELP serve_requests_total Total /v1/sample requests accepted by the daemon.\n" +
		"# TYPE serve_requests_total counter\nserve_requests_total 3\n"
	if !strings.Contains(out, wantHelp) {
		t.Errorf("HELP/TYPE block missing or misordered:\n%s", out)
	}
	if !strings.Contains(out, "# HELP go_gc_pause_ns ") {
		t.Error("histogram HELP line missing")
	}
	if !strings.Contains(out, "# HELP serve_inflight ") {
		t.Error("gauge HELP line missing")
	}
	if strings.Contains(out, "# HELP zz_undocumented_total") {
		t.Error("undocumented metric grew a HELP line from nowhere")
	}
	if !strings.Contains(out, "# TYPE zz_undocumented_total counter\nzz_undocumented_total 1\n") {
		t.Error("undocumented metric must still render TYPE + sample")
	}
	// RegisterHelp overrides take effect on the next scrape.
	RegisterHelp("zz_undocumented_total", "Now documented.")
	var c bytes.Buffer
	if err := r.WritePrometheus(&c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "# HELP zz_undocumented_total Now documented.\n") {
		t.Error("RegisterHelp did not take effect")
	}
}
