package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Help texts for the Prometheus exporter: metric name → one-line
// description, emitted as `# HELP` ahead of `# TYPE` so scraped metrics are
// self-documenting. The catalogue ships with descriptions for the built-in
// series; RegisterHelp adds or overrides entries. Unknown metrics simply
// get no HELP line — scraping never fails on a missing description.
var (
	helpMu   sync.RWMutex
	helpText = map[string]string{
		"serve_requests_total":        "Total /v1/sample requests accepted by the daemon.",
		"serve_errors_total":          "Total /v1/sample requests answered with an error status.",
		"serve_shots_total":           "Total measurement shots sampled across all requests.",
		"serve_inflight":              "Requests currently being handled.",
		"serve_sims_total":            "Strong simulations executed by the worker pool.",
		"serve_queue_depth":           "Simulation admission queue length.",
		"serve_queue_rejected_total":  "Jobs rejected by the admission queue (load shed, HTTP 429).",
		"serve_cache_hits_total":      "Snapshot LRU hits (no simulation, no flight join).",
		"serve_cache_misses_total":    "Snapshot LRU misses that started a new simulation flight.",
		"serve_cache_coalesced_total": "Requests coalesced onto an in-progress simulation flight.",
		"serve_cache_evictions_total": "Snapshot LRU evictions under byte pressure.",
		"serve_cache_bytes":           "Bytes of frozen snapshots resident in the LRU.",
		"serve_cache_entries":         "Frozen snapshots resident in the LRU.",
		"serve_cache_flights":         "Simulation flights currently in progress.",
		"serve_panics_total":          "Recovered panics (simulation workers and request handlers).",
		"serve_warm_loaded_total":     "Snapshots warm-loaded from the on-disk store at startup.",
		"serve_slo_trips_total":       "Flight-recorder trips raised by SLO fast-burn breaches.",
		"serve_fault_fired_total":     "Injected faults that fired (chaos testing).",
		"snapshot_nodes":              "Node count of the most recently frozen snapshot.",
		"snapshot_bytes":              "Byte size of the most recently frozen snapshot.",
		"dd_live_nodes":               "Live decision-diagram nodes in the unique table.",
		"dd_peak_nodes":               "High-water mark of live decision-diagram nodes.",
		"dd_gc_runs_total":            "Decision-diagram mark-and-sweep collections.",
		"dd_budget_pressure_total":    "Node-budget overruns surfaced (including GC-relieved ones).",
		"dd_unique_probe_len":         "Cumulative unique-table probe steps; divide by lookup totals for the mean probe length.",
		"dd_cache_hits_total":         "Compute-cache hits across all DD operation caches.",
		"dd_cache_misses_total":       "Compute-cache misses across all DD operation caches.",
		"dd_cache_evictions_total":    "Direct-mapped compute-cache entries overwritten by colliding inserts.",
		"dd_arena_slabs":              "Node slabs allocated by the DD arenas (vector + matrix).",
		"dd_freelist_len":             "Arena slots reclaimed by GC and awaiting reuse.",
		"go_heap_alloc_bytes":         "Live Go heap allocation (runtime.MemStats.HeapAlloc).",
		"go_heap_sys_bytes":           "Heap memory obtained from the OS (runtime.MemStats.HeapSys).",
		"go_goroutines":               "Current goroutine count.",
		"go_gomaxprocs":               "GOMAXPROCS at the last scrape.",
		"go_gc_runs_total":            "Completed Go garbage-collection cycles.",
		"go_gc_pause_ns":              "Go GC stop-the-world pause durations in nanoseconds.",
	}
)

// RegisterHelp sets (or overrides) the HELP description emitted for the
// metric name by WritePrometheus.
func RegisterHelp(name, help string) {
	helpMu.Lock()
	helpText[name] = help
	helpMu.Unlock()
}

// helpFor returns the registered description for name ("" when absent).
func helpFor(name string) string {
	helpMu.RLock()
	defer helpMu.RUnlock()
	return helpText[name]
}

// writeHeader emits the optional `# HELP` line followed by the mandatory
// `# TYPE` line for one metric.
func writeHeader(w io.Writer, pn, name, typ string) error {
	if help := helpFor(name); help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pn, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", pn, typ)
	return err
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters as `counter`, gauges as `gauge`,
// histograms as `histogram` with cumulative `_bucket{le=...}` series plus
// `_sum` and `_count`. Metrics with a registered description get a
// preceding `# HELP` line. Output is sorted by metric name within each
// section (counters, then gauges, then histograms) so scrapes and goldens
// are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if err := writeHeader(w, pn, name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", pn, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if err := writeHeader(w, pn, name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", pn, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		pn := promName(name)
		if err := writeHeader(w, pn, name, "histogram"); err != nil {
			return err
		}
		for i, bound := range h.Bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pn, bound, h.Cumulative[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			pn, h.Count, pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitizes a metric name to the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	ok := func(i int, c rune) bool {
		return c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
	}
	for i, c := range name {
		if !ok(i, c) {
			var b strings.Builder
			for j, d := range name {
				if ok(j, d) {
					b.WriteRune(d)
				} else {
					b.WriteByte('_')
				}
			}
			return b.String()
		}
		_ = i
	}
	return name
}

var expvarMu sync.Mutex

// PublishExpvar publishes the registry's live snapshot under the given
// expvar name (visible at /debug/vars of any expvar-serving process).
// Publishing the same name twice is a no-op rather than the package-level
// panic expvar.Publish would raise, so facades can call this idempotently;
// the last registry wins is NOT attempted — the first publication is kept.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// DebugServer is a running telemetry/pprof HTTP server.
type DebugServer struct {
	// Addr is the bound listen address (useful when the requested port was
	// 0).
	Addr string
	srv  *http.Server
}

// Close shuts the server down immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }

// DebugOption configures ServeDebug.
type DebugOption func(*debugConfig)

type debugConfig struct {
	recorder *FlightRecorder
}

// WithDebugFlightRecorder exposes the flight recorder's ring as JSONL at
// /debug/flight on the debug server.
func WithDebugFlightRecorder(f *FlightRecorder) DebugOption {
	return func(c *debugConfig) { c.recorder = f }
}

// ServeDebug starts an HTTP debug server on addr exposing
//
//	/metrics      — Prometheus text format of the registry (HELP + TYPE)
//	/metrics.json — the same snapshot as JSON
//	/debug/vars   — expvar (includes the registry when PublishExpvar was
//	                called)
//	/debug/pprof/ — the standard pprof profile index
//	/debug/flight — flight-recorder ring as JSONL (with
//	                WithDebugFlightRecorder)
//
// Every /metrics and /metrics.json scrape first captures the Go runtime
// (heap, GC pauses, goroutines) into the registry, so dashboards see engine
// and runtime health side by side. The server runs on its own goroutine
// until Close. It uses a private mux, so importing net/http/pprof's
// DefaultServeMux side effects are not relied upon.
func ServeDebug(addr string, r *Registry, opts ...DebugOption) (*DebugServer, error) {
	var cfg debugConfig
	for _, o := range opts {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		CaptureRuntime(r)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		CaptureRuntime(r)
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, r.Snapshot())
	})
	if cfg.recorder != nil {
		rec := cfg.recorder
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = rec.WriteJSONL(w)
		})
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{Addr: ln.Addr().String(), srv: srv}, nil
}

func writeJSON(w io.Writer, v any) {
	// Errors are dropped — telemetry never fails the process.
	_ = json.NewEncoder(w).Encode(v)
}
