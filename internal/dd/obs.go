package dd

import (
	"errors"

	"weaksim/internal/obs"
)

// ddMetrics caches the registry metric pointers the Manager mirrors its
// internal counters into. The Manager keeps its cheap non-atomic counters on
// the hot lookup paths (one uint64 increment per unique-table or compute-
// cache probe) and mirrors them into the registry's atomics at sync points —
// PublishMetrics, garbage collections, budget-pressure events — so a
// concurrently scraping debug server sees race-free, slightly-stale values
// while the disabled path costs exactly one nil pointer check.
type ddMetrics struct {
	reg *obs.Registry
	tr  *obs.RequestTrace

	vHits, vMisses     *obs.Counter
	mHits, mMisses     *obs.Counter
	mulHits, mulMisses *obs.Counter
	addHits, addMisses *obs.Counter
	cnumHits, cnumMiss *obs.Counter

	probeLen    *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheEvict  *obs.Counter

	gcRuns      *obs.Counter
	gcReclaimed *obs.Counter
	budgetHits  *obs.Counter

	invChecks *obs.Counter
	invFails  *obs.Counter

	liveNodes   *obs.Gauge
	peakNodes   *obs.Gauge
	cnumEntries *obs.Gauge
	arenaSlabs  *obs.Gauge
	freelistLen *obs.Gauge
}

// SetObserver attaches a metrics registry and a trace to the Manager: GC
// and budget-pressure events and invariant-check spans land in tr. Passing
// a nil registry and nil trace detaches. The registry receives the
// metric catalogue documented in DESIGN.md ("Observability"):
//
//	dd_unique_v_{hits,misses}_total    vector unique-table probes
//	dd_unique_m_{hits,misses}_total    matrix unique-table probes
//	dd_unique_probe_len                cumulative open-addressing probe steps
//	dd_cache_mul_{hits,misses}_total   matrix-vector compute cache
//	dd_cache_add_{hits,misses}_total   vector-add compute cache
//	dd_cache_{hits,misses}_total       all compute caches combined
//	dd_cache_evictions_total           direct-mapped entries overwritten
//	cnum_intern_{hits,misses}_total    complex interning table
//	cnum_table_entries                 distinct interned components (gauge)
//	dd_gc_runs_total                   mark-and-sweep collections
//	dd_gc_reclaimed_nodes_total        nodes reclaimed by GC
//	dd_budget_pressure_total           node-budget aborts surfaced
//	dd_live_nodes, dd_peak_nodes       live/high-water node gauges
//	dd_arena_slabs                     allocated node slabs (gauge)
//	dd_freelist_len                    recycled-and-unused arena slots (gauge)
func (m *Manager) SetObserver(reg *obs.Registry, tr *obs.RequestTrace) {
	if reg == nil && tr == nil {
		m.obs = nil
		return
	}
	m.obs = &ddMetrics{
		reg:         reg,
		tr:          tr,
		vHits:       reg.Counter("dd_unique_v_hits_total"),
		vMisses:     reg.Counter("dd_unique_v_misses_total"),
		mHits:       reg.Counter("dd_unique_m_hits_total"),
		mMisses:     reg.Counter("dd_unique_m_misses_total"),
		mulHits:     reg.Counter("dd_cache_mul_hits_total"),
		mulMisses:   reg.Counter("dd_cache_mul_misses_total"),
		addHits:     reg.Counter("dd_cache_add_hits_total"),
		addMisses:   reg.Counter("dd_cache_add_misses_total"),
		cnumHits:    reg.Counter("cnum_intern_hits_total"),
		cnumMiss:    reg.Counter("cnum_intern_misses_total"),
		probeLen:    reg.Counter("dd_unique_probe_len"),
		cacheHits:   reg.Counter("dd_cache_hits_total"),
		cacheMisses: reg.Counter("dd_cache_misses_total"),
		cacheEvict:  reg.Counter("dd_cache_evictions_total"),
		gcRuns:      reg.Counter("dd_gc_runs_total"),
		gcReclaimed: reg.Counter("dd_gc_reclaimed_nodes_total"),
		budgetHits:  reg.Counter("dd_budget_pressure_total"),
		invChecks:   reg.Counter("dd_invariant_checks_total"),
		invFails:    reg.Counter("dd_invariant_failures_total"),
		liveNodes:   reg.Gauge("dd_live_nodes"),
		peakNodes:   reg.Gauge("dd_peak_nodes"),
		cnumEntries: reg.Gauge("cnum_table_entries"),
		arenaSlabs:  reg.Gauge("dd_arena_slabs"),
		freelistLen: reg.Gauge("dd_freelist_len"),
	}
	m.PublishMetrics()
}

// PublishMetrics mirrors the Manager's internal counters into the attached
// registry. Drivers call it at op granularity (internal/sim does, after
// every applied operation); the Manager itself calls it after GC and on
// budget pressure. A Manager without an observer returns immediately.
func (m *Manager) PublishMetrics() {
	o := m.obs
	if o == nil {
		return
	}
	o.vHits.Set(m.vHits)
	o.vMisses.Set(m.vMisses)
	o.mHits.Set(m.mHits)
	o.mMisses.Set(m.mMisses)
	o.mulHits.Set(m.mulHits)
	o.mulMisses.Set(m.mulMisses)
	o.addHits.Set(m.addHits)
	o.addMisses.Set(m.addMisses)
	ch, cm := m.ctab.Stats()
	o.cnumHits.Set(ch)
	o.cnumMiss.Set(cm)
	o.probeLen.Set(m.uniqueProbes)
	o.cacheHits.Set(m.mulHits + m.addHits)
	o.cacheMisses.Set(m.mulMisses + m.addMisses)
	o.cacheEvict.Set(m.cacheEvictions)
	o.gcRuns.Set(m.gcRuns)
	live := int64(m.LiveNodes())
	o.liveNodes.Set(live)
	o.peakNodes.SetMax(live)
	o.peakNodes.SetMax(int64(m.peakNodes))
	o.cnumEntries.Set(int64(m.ctab.Len()))
	o.arenaSlabs.Set(int64(len(m.varena.slabs) + len(m.marena.slabs)))
	o.freelistLen.Set(int64(len(m.varena.free) + len(m.marena.free)))
}

// noteGC records a finished garbage collection in the registry and emits a
// structured trace event with the sweep's yield.
func (m *Manager) noteGC(removedV, removedM int) {
	o := m.obs
	if o == nil {
		return
	}
	o.gcReclaimed.Add(uint64(removedV + removedM))
	m.PublishMetrics()
	if o.tr != nil {
		o.tr.Event(obs.PhaseApply, "gc", map[string]any{
			"removed_v": removedV,
			"removed_m": removedM,
			"live":      m.LiveNodes(),
		})
	}
}

// startVerify opens an invariant-check span and bumps the check counter.
// The returned closer records the outcome: failures increment the aggregate
// failure counter plus a per-check dd_invariant_<check>_failures_total
// series, and the span (when tracing) carries the check name and any
// violation. With no observer attached both halves are no-ops.
func (m *Manager) startVerify(name string) func(error) {
	o := m.obs
	if o == nil {
		return func(error) {}
	}
	o.invChecks.Inc()
	sp := obs.StartSpan(nil, o.tr, obs.PhaseVerify)
	return func(err error) {
		if err != nil {
			o.invFails.Inc()
			var ie *InvariantError
			if errors.As(err, &ie) {
				o.reg.Counter("dd_invariant_" + ie.Check + "_failures_total").Inc()
			}
		}
		if o.tr != nil {
			attrs := map[string]any{"check": name}
			if err != nil {
				attrs["error"] = err.Error()
			}
			sp.End(attrs)
		}
	}
}

// noteBudgetPressure records a node-budget abort surfacing through Guarded.
func (m *Manager) noteBudgetPressure(live, budget int) {
	o := m.obs
	if o == nil {
		return
	}
	o.budgetHits.Inc()
	m.PublishMetrics()
	if o.tr != nil {
		o.tr.Event(obs.PhaseApply, "budget-pressure", map[string]any{
			"live":   live,
			"budget": budget,
		})
	}
}
