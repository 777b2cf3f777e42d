package serve

// SLO engine unit tests: burn-rate arithmetic, window tallies, rising-edge
// flight-recorder trips, and the /v1/slo report shape.

import (
	"net/http"
	"testing"
	"time"

	"weaksim/internal/obs"
)

// newTestEngine builds an engine with an injectable clock starting at a
// fixed epoch.
func newTestEngine(slos []SLO, rec *obs.FlightRecorder) (*sloEngine, *time.Time) {
	e := newSLOEngine(slos, rec, obs.NewRegistry())
	now := time.Unix(1_700_000_000, 0)
	e.now = func() time.Time { return now }
	return e, &now
}

func testSLO() SLO {
	return SLO{
		Endpoint:           "/v1/sample",
		LatencyObjective:   10 * time.Millisecond,
		LatencyTarget:      0.99,
		AvailabilityTarget: 0.999,
	}
}

func TestSLOBurnRateMath(t *testing.T) {
	e, _ := newTestEngine([]SLO{testSLO()}, nil)

	// 98 good + 2 errors out of 100: bad fraction 0.02 against a 0.001
	// budget is burn 20; all fast, so latency burn 0.
	for i := 0; i < 98; i++ {
		e.observe("/v1/sample", time.Millisecond, http.StatusOK)
	}
	for i := 0; i < 2; i++ {
		e.observe("/v1/sample", time.Millisecond, http.StatusInternalServerError)
	}
	rep := e.report()
	if len(rep.SLOs) != 1 {
		t.Fatalf("%d slos, want 1", len(rep.SLOs))
	}
	w := rep.SLOs[0].Windows["5m"]
	if w.Requests != 100 || w.Errors != 2 || w.Slow != 0 {
		t.Fatalf("window tally %+v", w)
	}
	if got, want := w.AvailabilityBurn, 20.0; !close1e9(got, want) {
		t.Fatalf("availability burn %v, want %v", got, want)
	}
	if w.LatencyBurn != 0 {
		t.Fatalf("latency burn %v, want 0", w.LatencyBurn)
	}
	// The 1h window sees the same 100 requests.
	if h := rep.SLOs[0].Windows["1h"]; h.Requests != 100 || !close1e9(h.AvailabilityBurn, 20.0) {
		t.Fatalf("1h window %+v", h)
	}
	if got := rep.SLOs[0].AvailabilityBudgetRemaining; !close1e9(got, 1-20.0) {
		t.Fatalf("budget remaining %v", got)
	}
}

func TestSLOLatencyBurn(t *testing.T) {
	e, _ := newTestEngine([]SLO{testSLO()}, nil)
	// 4 fast + 1 slow out of 5: bad fraction 0.2 against a 0.01 budget is
	// burn 20. A 429 is shed load, not an error — availability stays clean.
	for i := 0; i < 4; i++ {
		e.observe("/v1/sample", time.Millisecond, http.StatusTooManyRequests)
	}
	e.observe("/v1/sample", 50*time.Millisecond, http.StatusOK)
	w := e.report().SLOs[0].Windows["5m"]
	if w.Errors != 0 {
		t.Fatalf("429s burned availability: %+v", w)
	}
	if !close1e9(w.LatencyBurn, 20.0) {
		t.Fatalf("latency burn %v, want 20", w.LatencyBurn)
	}
}

func TestSLOTripRisingEdgeOnly(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	e, _ := newTestEngine([]SLO{testSLO()}, rec)

	// Below threshold: 1 error in 100 is burn 10 < 14.4 — no trip.
	for i := 0; i < 99; i++ {
		e.observe("/v1/sample", time.Millisecond, http.StatusOK)
	}
	e.observe("/v1/sample", time.Millisecond, http.StatusBadGateway)
	if got := rec.Trips(); got != 0 {
		t.Fatalf("tripped below threshold: %d", got)
	}

	// Crossing to burn 20 trips exactly once; staying in breach is silent.
	e.observe("/v1/sample", time.Millisecond, http.StatusBadGateway)
	if got := rec.Trips(); got != 1 {
		t.Fatalf("trips after crossing = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		e.observe("/v1/sample", time.Millisecond, http.StatusBadGateway)
	}
	if got := rec.Trips(); got != 1 {
		t.Fatalf("sustained breach re-tripped: %d", got)
	}
	if !e.report().SLOs[0].Breached {
		t.Fatal("report does not show breach")
	}

	// The trip record names the endpoint.
	found := false
	for _, r := range rec.Snapshot() {
		if r.Kind == "trip" && r.Name == "slo-breach" && r.Attrs["endpoint"] == "/v1/sample" {
			found = true
		}
	}
	if !found {
		t.Fatal("no slo-breach trip record in the ring")
	}
}

func TestSLOWindowExpiryResetsBreach(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	e, now := newTestEngine([]SLO{testSLO()}, rec)

	// Breach: 2 errors out of 2 is burn 1000.
	e.observe("/v1/sample", time.Millisecond, http.StatusBadGateway)
	e.observe("/v1/sample", time.Millisecond, http.StatusBadGateway)
	if rec.Trips() != 1 {
		t.Fatalf("trips %d, want 1", rec.Trips())
	}

	// Ten minutes later the 5m window is empty; a clean request clears the
	// breach latch, so the next breach trips again.
	*now = now.Add(10 * time.Minute)
	e.observe("/v1/sample", time.Millisecond, http.StatusOK)
	rep := e.report()
	if rep.SLOs[0].Breached {
		t.Fatal("breach survived window expiry")
	}
	if w := rep.SLOs[0].Windows["5m"]; w.Requests != 1 || w.Errors != 0 {
		t.Fatalf("5m window after expiry %+v", w)
	}
	// The 1h window still remembers the old errors.
	if w := rep.SLOs[0].Windows["1h"]; w.Errors != 2 {
		t.Fatalf("1h window after expiry %+v", w)
	}
	e.observe("/v1/sample", time.Millisecond, http.StatusBadGateway)
	e.observe("/v1/sample", time.Millisecond, http.StatusBadGateway)
	if rec.Trips() != 2 {
		t.Fatalf("trips after re-breach %d, want 2", rec.Trips())
	}
}

func TestSLOEngineIgnoresUnknownAndDegenerate(t *testing.T) {
	e, _ := newTestEngine([]SLO{
		testSLO(),
		{Endpoint: "/degenerate", LatencyObjective: time.Second, LatencyTarget: 1.0, AvailabilityTarget: 1.0},
	}, nil)
	e.observe("/not-configured", time.Second, http.StatusBadGateway)
	e.observe("/degenerate", time.Second, http.StatusBadGateway)
	rep := e.report()
	if len(rep.SLOs) != 1 || rep.SLOs[0].Endpoint != "/v1/sample" {
		t.Fatalf("degenerate SLO not dropped: %+v", rep.SLOs)
	}
	// A nil engine is a no-op everywhere.
	var nilEngine *sloEngine
	nilEngine.observe("/v1/sample", time.Second, http.StatusBadGateway)
	if got := nilEngine.report(); len(got.SLOs) != 0 {
		t.Fatalf("nil engine report %+v", got)
	}
}

func TestSLOEndpointWellFormed(t *testing.T) {
	_, base := startServer(t, Config{})
	for i := 0; i < 2; i++ {
		var resp sampleResult
		if status, _ := post(t, base, sampleBody(16, 1), &resp); status != http.StatusOK {
			t.Fatalf("sample %d status %d", i, status)
		}
	}
	var rep sloReport
	if status := getJSON(t, base+"/v1/slo", &rep); status != http.StatusOK {
		t.Fatalf("slo status %d", status)
	}
	if rep.BurnThreshold != FastBurnThreshold {
		t.Fatalf("threshold %v", rep.BurnThreshold)
	}
	if rep.WindowSeconds["5m"] != 300 || rep.WindowSeconds["1h"] != 3600 {
		t.Fatalf("windows %+v", rep.WindowSeconds)
	}
	if len(rep.SLOs) == 0 {
		t.Fatal("no SLOs in default config")
	}
	seen := map[string]bool{}
	for _, s := range rep.SLOs {
		seen[s.Endpoint] = true
		for _, win := range []string{"5m", "1h"} {
			if _, ok := s.Windows[win]; !ok {
				t.Fatalf("%s missing window %s", s.Endpoint, win)
			}
		}
		if s.LatencyObjectiveMS <= 0 || s.LatencyTarget <= 0 || s.AvailabilityTarget <= 0 {
			t.Fatalf("degenerate objectives %+v", s)
		}
	}
	if !seen["/v1/sample"] {
		t.Fatalf("default SLOs missing /v1/sample: %+v", rep.SLOs)
	}
	// Both successful samples above must have been tallied, in both windows.
	for _, s := range rep.SLOs {
		if s.Endpoint != "/v1/sample" {
			continue
		}
		for _, win := range []string{"5m", "1h"} {
			if got := s.Windows[win].Requests; got != 2 {
				t.Fatalf("%s window tallied %d sample requests, want 2", win, got)
			}
		}
	}
}

// close1e9 compares floats to 1e-9 relative tolerance.
func close1e9(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d <= 1e-9*scale
}
