package weaksim

// Telemetry facade: re-exports of the internal/obs metrics registry and
// trace stream, plus the per-circuit machine-readable summary that
// cmd/weaksim serializes with -metrics-out and SimulateAuto attaches to its
// RunReport.
//
// A Tracer is the same trace type the daemon records requests in, in
// stream mode: phase spans are timed once (one obs.StartSpan feeds both the
// phase_<p>_ns counter and the trace), and each record is written as one
// JSON line the moment it ends, so a long run holds none of its op events
// in memory.
//
// The design rule throughout is "disabled means free": a run without
// WithMetrics/WithTracer pays one nil-check per operation and zero
// allocations on the telemetry paths, so the Table I numbers are unaffected
// by the existence of this layer (see the overhead discussion in DESIGN.md,
// "Observability").

import (
	"io"

	"weaksim/internal/dd"
	"weaksim/internal/obs"
)

// Metrics is a registry of atomic counters, gauges, and fixed-bucket
// histograms. Create one with NewMetrics, attach it with WithMetrics, and
// export it with WritePrometheus / PublishExpvar / Snapshot, or summarize it
// with SummarizeMetrics.
type Metrics = obs.Registry

// Tracer receives structured trace records (phase-labeled spans and point
// events). Create one with NewJSONLTracer and attach it with WithTracer.
type Tracer = obs.RequestTrace

// TraceEvent is one structured trace record as serialized to JSONL: the
// span record the daemon's request traces and flight recorder use too.
type TraceEvent = obs.SpanRecord

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewJSONLTracer returns a tracer writing one JSON record per line to w as
// each record ends; it retains nothing, and every line carries the tracer's
// one trace ID. every throttles op-granularity events (1 = every op, n =
// one per n applied ops); phase spans and governance events are never
// throttled. Tracing with a large `every` on a
// million-gate circuit costs close to nothing; a nil tracer costs exactly
// nothing.
func NewJSONLTracer(w io.Writer, every int) *Tracer {
	return obs.NewStreamTrace(w, every)
}

// WithMetrics attaches a metrics registry to the simulation: the DD
// engine's unique-table, compute-cache, and interning-table hit/miss
// counters, GC and budget-pressure events, live/peak node gauges, per-op
// apply latency, per-sample walk latency, and per-phase wall-clock
// accumulators all land in reg. nil (the default) disables metrics at zero
// cost.
func WithMetrics(reg *Metrics) Option { return func(c *config) { c.reg = reg } }

// WithTracer attaches a structured tracer: phase spans (build → apply →
// freeze → sample), throttled per-op events, GC sweeps, budget pressure,
// and every degradation-ladder step of SimulateAuto. nil (the default)
// disables tracing at zero cost.
func WithTracer(t *Tracer) Option { return func(c *config) { c.tracer = t } }

// DebugServer is a running observability HTTP server (see ServeDebug).
type DebugServer = obs.DebugServer

// ServeDebug starts an HTTP debug server on addr exposing the registry in
// Prometheus text format at /metrics (plus /metrics.json), expvar at
// /debug/vars, and the standard pprof profile endpoints under /debug/pprof/.
// It returns immediately; the server runs until Close.
func ServeDebug(addr string, reg *Metrics) (*DebugServer, error) {
	return obs.ServeDebug(addr, reg)
}

// CaptureRuntime scrapes Go runtime health into reg: heap alloc/sys bytes,
// goroutine count, GOMAXPROCS, cumulative GC runs, and a GC pause-duration
// histogram (go_gc_pause_ns). The daemon's debug server calls it on every
// /metrics scrape; library users embedding a registry call it right before
// Snapshot or WritePrometheus.
func CaptureRuntime(reg *Metrics) { obs.CaptureRuntime(reg) }

// RegisterMetricHelp attaches a # HELP description to a metric name in the
// Prometheus text exposition. The built-in serve_/dd_/go_ metrics ship with
// descriptions already; use this for application-defined metrics.
func RegisterMetricHelp(name, help string) { obs.RegisterHelp(name, help) }

// Telemetry is the machine-readable per-circuit summary: per-phase
// durations, peak DD nodes, and the cache hit rates that explain DD
// simulator performance. It marshals cleanly with encoding/json.
type Telemetry struct {
	// Backend is the backend that produced the state ("dd", "vector", or
	// "" when unknown, e.g. a failed run summarized from metrics alone).
	Backend string `json:"backend,omitempty"`
	// PhaseNS maps pipeline phase → cumulative wall-clock nanoseconds.
	// Phases: build, apply, freeze, sample. Only populated when a Metrics
	// registry was attached.
	PhaseNS map[string]int64 `json:"phase_ns,omitempty"`
	// PeakNodes is the DD live-node high-water mark; LiveNodes the current
	// count; FinalStateNodes the node count of the final state DD alone.
	PeakNodes       int `json:"peak_nodes"`
	LiveNodes       int `json:"live_nodes"`
	FinalStateNodes int `json:"final_state_nodes,omitempty"`
	// HitRates maps cache kind → hits/(hits+misses) in [0,1]. Kinds:
	// unique_v, unique_m, cache_mul, cache_add, cnum_intern. Absent kinds
	// saw no lookups.
	HitRates map[string]float64 `json:"hit_rates"`
	// GCRuns counts mark-and-sweep collections; BudgetPressure counts
	// node-budget aborts surfaced (including ones relieved by GC).
	GCRuns         uint64 `json:"gc_runs"`
	BudgetPressure uint64 `json:"budget_pressure,omitempty"`
	// Counters and Gauges are the full registry dump (nil without a
	// registry) for downstream analysis that wants more than the digest.
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
}

// hitRate returns hits/(hits+misses), and false when there were no lookups.
func hitRate(hits, misses uint64) (float64, bool) {
	total := hits + misses
	if total == 0 {
		return 0, false
	}
	return float64(hits) / float64(total), true
}

func setRate(m map[string]float64, kind string, hits, misses uint64) {
	if r, ok := hitRate(hits, misses); ok {
		m[kind] = r
	}
}

// telemetryFromDD builds a summary from a manager's table statistics,
// augmented with phase timings and the raw dump when a registry is present.
func telemetryFromDD(st dd.Stats, peak, live int, reg *Metrics) *Telemetry {
	t := &Telemetry{
		Backend:   "dd",
		PeakNodes: peak,
		LiveNodes: live,
		HitRates:  map[string]float64{},
		GCRuns:    st.GCRuns,
	}
	setRate(t.HitRates, "unique_v", st.VHits, st.VMisses)
	setRate(t.HitRates, "unique_m", st.MHits, st.MMisses)
	setRate(t.HitRates, "cache_mul", st.MulHits, st.MulMisses)
	setRate(t.HitRates, "cache_add", st.AddHits, st.AddMisses)
	setRate(t.HitRates, "cnum_intern", st.ComplexHits, st.CMisses)
	t.fillFromRegistry(reg)
	return t
}

// fillFromRegistry adds the phase timings and the full metric dump.
func (t *Telemetry) fillFromRegistry(reg *Metrics) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	t.PhaseNS = map[string]int64{}
	for name, v := range snap.Counters {
		if phase, ok := phaseCounter(name); ok {
			t.PhaseNS[phase] = int64(v)
		}
	}
	t.BudgetPressure = snap.Counters["dd_budget_pressure_total"]
	t.Counters = snap.Counters
	t.Gauges = snap.Gauges
}

// phaseCounter extracts the phase label from a "phase_<label>_ns" counter.
func phaseCounter(name string) (string, bool) {
	const pre, suf = "phase_", "_ns"
	if len(name) > len(pre)+len(suf) && name[:len(pre)] == pre && name[len(name)-len(suf):] == suf {
		return name[len(pre) : len(name)-len(suf)], true
	}
	return "", false
}

// SummarizeMetrics builds a Telemetry digest from a registry alone — the
// fallback summary surface when no State survived (the run went MO/TO).
// Hit rates are recomputed from the mirrored dd_*/cnum_* counters.
func SummarizeMetrics(reg *Metrics) *Telemetry {
	t := &Telemetry{HitRates: map[string]float64{}}
	if reg == nil {
		return t
	}
	snap := reg.Snapshot()
	c := snap.Counters
	setRate(t.HitRates, "unique_v", c["dd_unique_v_hits_total"], c["dd_unique_v_misses_total"])
	setRate(t.HitRates, "unique_m", c["dd_unique_m_hits_total"], c["dd_unique_m_misses_total"])
	setRate(t.HitRates, "cache_mul", c["dd_cache_mul_hits_total"], c["dd_cache_mul_misses_total"])
	setRate(t.HitRates, "cache_add", c["dd_cache_add_hits_total"], c["dd_cache_add_misses_total"])
	setRate(t.HitRates, "cnum_intern", c["cnum_intern_hits_total"], c["cnum_intern_misses_total"])
	t.GCRuns = c["dd_gc_runs_total"]
	t.PeakNodes = int(snap.Gauges["dd_peak_nodes"])
	t.LiveNodes = int(snap.Gauges["dd_live_nodes"])
	t.fillFromRegistry(reg)
	return t
}

// Telemetry summarizes the state's production run: phase durations (when a
// registry was attached with WithMetrics), peak/live DD nodes, and cache
// hit rates. For vector-backed states the DD quantities are zero.
func (s *State) Telemetry() *Telemetry {
	if s.dense != nil {
		t := &Telemetry{Backend: "vector", HitRates: map[string]float64{}}
		t.fillFromRegistry(s.cfg.reg)
		return t
	}
	t := telemetryFromDD(s.mgr.TableStats(), s.mgr.PeakNodes(), s.mgr.LiveNodes(), s.cfg.reg)
	t.FinalStateNodes = s.NodeCount()
	return t
}
