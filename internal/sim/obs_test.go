package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/obs"
)

// TestSimTelemetryCounters pins the exact op accounting on a deterministic
// circuit: sim_ops_applied_total equals the non-barrier op count, the apply
// latency histogram saw one observation per applied op, and the mirrored
// dd_* counters match the manager's own statistics.
func TestSimTelemetryCounters(t *testing.T) {
	c, err := algo.Generate("qft_6")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	s, err := NewDD(c, WithObservability(reg, obs.NewStreamTrace(&buf, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	wantOps := uint64(c.NumOps())
	if got := snap.Counters["sim_ops_applied_total"]; got != wantOps {
		t.Fatalf("sim_ops_applied_total = %d, want %d", got, wantOps)
	}
	// Each applied op is one histogram observation.
	if got := reg.Histogram("sim_op_apply_ns", nil).Count(); got != wantOps {
		t.Fatalf("sim_op_apply_ns count = %d, want %d", got, wantOps)
	}
	// Mirrored counters must agree with the manager's own stats.
	st := s.Manager().TableStats()
	mirror := map[string]uint64{
		"dd_unique_v_hits_total":    st.VHits,
		"dd_unique_v_misses_total":  st.VMisses,
		"dd_unique_m_hits_total":    st.MHits,
		"dd_unique_m_misses_total":  st.MMisses,
		"dd_cache_mul_hits_total":   st.MulHits,
		"dd_cache_mul_misses_total": st.MulMisses,
		"dd_gc_runs_total":          st.GCRuns,
	}
	for name, want := range mirror {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (manager stats)", name, got, want)
		}
	}
	if got := snap.Gauges["dd_live_nodes"]; got != int64(s.Manager().LiveNodes()) {
		t.Errorf("dd_live_nodes gauge = %d, want %d", got, s.Manager().LiveNodes())
	}
	if got := snap.Gauges["dd_peak_nodes"]; got != int64(s.Manager().PeakNodes()) {
		t.Errorf("dd_peak_nodes gauge = %d, want %d", got, s.Manager().PeakNodes())
	}

	// Throttled apply events: one per 4 applied ops.
	if applyEvents := countOpEvents(t, &buf); applyEvents != int(wantOps)/4 {
		t.Errorf("apply trace events = %d, want %d (every=4 over %d ops)", applyEvents, wantOps/4, wantOps)
	}
}

// TestStepTelemetryParity drives the circuit one Step at a time — the
// governance single-step path — and checks it produces the same op counter
// as a full Run. Satellite: Step must emit per-op telemetry like the loop.
func TestStepTelemetryParity(t *testing.T) {
	c, err := algo.Generate("qft_6")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := NewDD(c, WithObservability(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	for s.Pos() < len(c.Ops) {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	wantOps := uint64(c.NumOps())
	if got := reg.Counter("sim_ops_applied_total").Value(); got != wantOps {
		t.Fatalf("step-driven sim_ops_applied_total = %d, want %d", got, wantOps)
	}
	if got := reg.Histogram("sim_op_apply_ns", nil).Count(); got != wantOps {
		t.Fatalf("step-driven sim_op_apply_ns count = %d, want %d", got, wantOps)
	}
}

// countOpEvents decodes a JSONL trace stream and counts its op events.
func countOpEvents(t *testing.T, r io.Reader) int {
	t.Helper()
	n := 0
	dec := json.NewDecoder(r)
	for dec.More() {
		var e obs.SpanRecord
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Kind == "event" && e.Phase == obs.PhaseApply && e.Name == "op" {
			n++
		}
	}
	return n
}

// TestOpEventsStepwise: a stepwise run emits one op event whenever the
// applied count reaches a multiple of the trace interval. qft_6 has 30 ops,
// so an interval of 3 yields 10 events.
func TestOpEventsStepwise(t *testing.T) {
	c, err := algo.Generate("qft_6")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumOps() != 30 {
		t.Fatalf("qft_6 has %d ops, want 30", c.NumOps())
	}
	var buf bytes.Buffer
	s, err := NewDD(c, WithObservability(nil, obs.NewStreamTrace(&buf, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := countOpEvents(t, &buf); got != 10 {
		t.Errorf("%d op events, want 10", got)
	}
}
