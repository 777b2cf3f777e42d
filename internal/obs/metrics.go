// Package obs is the repository's zero-dependency (stdlib-only) telemetry
// layer: a metrics registry of atomic counters, gauges, and fixed-bucket
// histograms; structured trace events with phase-labeled spans; and export
// surfaces (Prometheus text format, expvar, a pprof debug server, JSON
// snapshots).
//
// The paper's headline claims are quantitative — Table I lives and dies on
// per-phase runtime and peak DD node counts — so the quantities that explain
// DD simulator performance (cache hit rates, node-growth trajectories, per-
// phase latencies) are first-class observables here.
//
// Design rules:
//
//   - Disabled means free. Every metric type and the Tracer are nil-safe:
//     calling any method on a nil *Counter, *Gauge, *Histogram, *Registry,
//     or *Tracer is a no-op that performs no allocation and no time.Now
//     call. Instrumented hot paths guard on a single pointer nil-check.
//   - Writers are single untyped atomics, so a concurrently running debug
//     server scrapes race-free while the (single-threaded) simulation
//     writes.
//   - Names are flat strings; the catalogue lives in DESIGN.md
//     ("Observability"). Counters end in _total by convention, phase
//     accumulators in _ns.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing (or mirror-set) atomic counter.
// The zero value is ready to use; all methods are nil-safe no-ops.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Set overwrites the value. Used to mirror counters maintained elsewhere
// (the dd.Manager's cheap non-atomic counters are mirrored into the registry
// at sync points rather than paying an atomic per unique-table lookup).
func (c *Counter) Set(n uint64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.
// The zero value is ready to use; all methods are nil-safe no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// SetMax raises the gauge to v if v is larger — a lock-free high-water mark.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic buckets. Bounds are
// inclusive upper bounds; an implicit +Inf bucket catches the rest. The
// zero value is unusable — construct through Registry.Histogram — but a nil
// *Histogram is a safe no-op observer.
type Histogram struct {
	bounds  []float64 // immutable after construction, ascending
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; small bound sets make a linear
	// scan competitive, but log2(16) is four compares either way.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d.Nanoseconds())) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is a point-in-time copy of a histogram, with cumulative
// bucket counts in Prometheus style (Cumulative[i] counts observations
// <= Bounds[i]; the final entry is the +Inf bucket and equals Count).
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []uint64  `json:"cumulative"`
	Count      uint64    `json:"count"`
	Sum        float64   `json:"sum"`
}

// Snapshot copies the histogram state. Cumulative counts are monotone
// non-decreasing by construction.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.buckets)),
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		s.Cumulative[i] = cum
	}
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution by linear interpolation within the bucket that contains the
// target rank. The estimate for a rank landing in bucket (lo, hi] is
//
//	lo + (hi-lo) · (rank - cum_below) / bucket_count
//
// with lo = 0 for the first bucket. Ranks landing in the +Inf bucket are
// clamped to the largest finite bound (the histogram cannot say more), and
// an empty histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Cumulative) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var below uint64
	for i, cum := range s.Cumulative {
		if float64(cum) < rank || cum == below {
			below = cum
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		inBucket := float64(cum - below)
		return lo + (hi-lo)*(rank-float64(below))/inBucket
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Default bucket bounds, in nanoseconds.
var (
	// OpLatencyBounds covers per-op apply latency: 1µs to 10s, decades.
	OpLatencyBounds = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
	// WalkLatencyBounds covers per-sample walk latency: 100ns to 1ms.
	WalkLatencyBounds = []float64{100, 250, 500, 1e3, 2.5e3, 5e3, 1e4, 1e5, 1e6}
	// ServeLatencyBounds covers whole-request daemon latency, 100µs to 30s,
	// with 1-2.5-5 spacing: coarse decade buckets make interpolated
	// percentiles (HistogramSnapshot.Quantile) uselessly wide, so the serving
	// histograms pay for ~2× the buckets.
	ServeLatencyBounds = []float64{
		1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7,
		1e8, 2.5e8, 5e8, 1e9, 2.5e9, 5e9, 1e10, 3e10,
	}
)

// Registry is a named collection of metrics. Metric constructors are
// get-or-create and return stable pointers, so callers cache the pointer
// once and touch only the atomic on the hot path. All methods are safe for
// concurrent use, and every method on a nil *Registry returns a nil metric
// (whose methods are no-ops), so "no registry configured" costs one pointer
// comparison.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry,
// marshalable with encoding/json.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies all metrics. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
