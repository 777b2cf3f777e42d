package dd

import (
	"testing"

	"weaksim/internal/obs"
)

// TestPeakNodesNeverStale pins the satellite fix: PeakNodes / LiveNodes /
// TableStats refresh the high-water mark on read, so a snapshot taken right
// after table growth can never under-report the peak — even if the growth
// happened through a path that skipped noteGrowth.
func TestPeakNodesNeverStale(t *testing.T) {
	m := New(4)
	e := m.ZeroState()
	if got, live := m.PeakNodes(), m.LiveNodes(); got < live {
		t.Fatalf("peak %d < live %d after ZeroState", got, live)
	}

	// Grow the vector unique table with distinct basis states.
	for idx := uint64(1); idx < 8; idx++ {
		e = m.Add(e, m.BasisState(idx))
	}
	live := m.vTab.n + m.mTab.n
	if got := m.PeakNodes(); got < live {
		t.Fatalf("PeakNodes() = %d under-reports live %d", got, live)
	}
	if st := m.TableStats(); m.peakNodes < live {
		t.Fatalf("TableStats() left peak %d below live %d (stats: %+v)", m.peakNodes, live, st)
	}

	// Simulate a growth path that bypassed noteGrowth by resetting the
	// recorded peak: the readers must repair it.
	m.peakNodes = 0
	if got := m.LiveNodes(); got != live {
		t.Fatalf("LiveNodes() = %d, want %d", got, live)
	}
	if got := m.PeakNodes(); got != live {
		t.Fatalf("PeakNodes() = %d after reset, want refreshed %d", got, live)
	}
	_ = e
}

// TestPublishMetricsMirrors checks that SetObserver + PublishMetrics copy
// the manager's cheap non-atomic counters into registry atomics.
func TestPublishMetricsMirrors(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(3)
	m.SetObserver(reg, nil)
	st := m.ZeroState()
	for q := 0; q < 3; q++ {
		st = m.Mul(m.GateDD(GateMatrix(hMatrix), q), st)
	}
	m.PublishMetrics()

	snap := reg.Snapshot()
	stats := m.TableStats()
	if got := snap.Counters["dd_unique_v_misses_total"]; got != stats.VMisses {
		t.Fatalf("dd_unique_v_misses_total = %d, want %d", got, stats.VMisses)
	}
	if got := snap.Counters["cnum_intern_hits_total"]; got != stats.ComplexHits {
		t.Fatalf("cnum_intern_hits_total = %d, want %d", got, stats.ComplexHits)
	}
	if got := snap.Gauges["dd_peak_nodes"]; got != int64(m.PeakNodes()) {
		t.Fatalf("dd_peak_nodes = %d, want %d", got, m.PeakNodes())
	}
	if got := snap.Gauges["cnum_table_entries"]; got <= 0 {
		t.Fatalf("cnum_table_entries = %d, want > 0", got)
	}
	_ = st
}

// TestGCEmitsTraceEvent checks the GC hook: a collection publishes metrics
// and emits a gc trace event carrying the reclaimed counts.
func TestGCEmitsTraceEvent(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.StartRequest("", nil, nil)
	m := New(3)
	m.SetObserver(reg, tr)

	// Build some garbage: states not kept alive by the GC roots.
	var keep VEdge
	for idx := uint64(0); idx < 8; idx++ {
		keep = m.Add(keep, m.BasisState(idx))
	}
	removedV, removedM := m.GC([]VEdge{m.ZeroState()}, nil)
	if removedV == 0 {
		t.Fatalf("GC removed nothing (v=%d m=%d); test needs garbage", removedV, removedM)
	}
	if got := reg.Counter("dd_gc_runs_total").Value(); got != 1 {
		t.Fatalf("dd_gc_runs_total = %d, want 1", got)
	}
	if got := reg.Counter("dd_gc_reclaimed_nodes_total").Value(); got != uint64(removedV+removedM) {
		t.Fatalf("dd_gc_reclaimed_nodes_total = %d, want %d", got, removedV+removedM)
	}
	var sawGC bool
	for _, e := range tr.Spans() {
		if e.Name == "gc" {
			sawGC = true
		}
	}
	if !sawGC {
		t.Fatal("no gc trace event emitted")
	}
	_ = keep
}
