// Package serve turns the weak-simulation pipeline into a long-running
// sampling service: an HTTP/JSON daemon that accepts circuits (OpenQASM 2.0
// or named internal/algo benchmarks) and returns measurement counts.
//
// The economics follow the paper directly (Hillmich/Markov/Wille, DAC 2020):
// strong simulation is the expensive one-time pass, and every sample after
// the freeze costs O(n). That is the shape of a serving workload — compile
// once, freeze once, answer millions of cheap sample requests — so the
// daemon is built around a canonical-circuit-hash → frozen-snapshot LRU with
// single-flight admission (cache.go), a bounded simulation queue with a
// fixed worker pool (queue.go), and per-request resource governance mapped
// onto HTTP status codes (handlers.go):
//
//	dd.ErrNodeBudget / statevec.ErrMemoryOut → 507 Insufficient Storage ("MO")
//	context.DeadlineExceeded                 → 504 Gateway Timeout      ("TO")
//	admission queue full                     → 429 Too Many Requests + Retry-After
//	draining after SIGTERM                   → 503 Service Unavailable
//
// Cached circuits are served entirely from the immutable snapshot by
// lock-free parallel walks (core.FrozenSampler + core.CountsParallel): no DD
// work, no node-budget exposure, and counts that depend only on
// (circuit, seed, shots).
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"weaksim/internal/circuit"
	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/job"
	"weaksim/internal/obs"
	"weaksim/internal/sim"
	"weaksim/internal/snapstore"
)

// Defaults for the zero Config.
const (
	DefaultCacheBytes     = 256 << 20 // 256 MiB of frozen snapshots
	DefaultQueueDepth     = 64
	DefaultMaxShots       = 10_000_000
	DefaultShots          = 1024
	DefaultMaxQubits      = 64 // sample indices are uint64 bitstrings
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBodyBytes   = 4 << 20
)

// Config configures a sampling daemon. The zero value serves with the
// defaults above; Addr ":0" binds an ephemeral port.
type Config struct {
	// Addr is the listen address (host:port; ":0" = ephemeral).
	Addr string
	// Norm is the DD normalization scheme for strong simulation.
	Norm dd.Norm
	// NodeBudget bounds live DD nodes per simulation (0 = unlimited);
	// overruns surface as HTTP 507.
	NodeBudget int
	// CacheBytes bounds the frozen-snapshot LRU: an entry charges 64 bytes
	// per DD node, 48 for the snapshot's node array (dd.Snapshot.Bytes) and
	// 16 for its sampler's walk table, plus the request spellings it
	// remembers (cache.go). <= 0 selects DefaultCacheBytes.
	CacheBytes int64
	// QueueDepth bounds the simulation admission queue; a full queue
	// rejects with HTTP 429. < 0 disables queueing (every miss needs an
	// idle worker); 0 selects DefaultQueueDepth.
	QueueDepth int
	// SimWorkers is the strong-simulation worker pool size (<= 0 selects
	// GOMAXPROCS).
	SimWorkers int
	// MaxSampleWorkers caps the per-request sampling worker count (<= 0
	// selects GOMAXPROCS).
	MaxSampleWorkers int
	// MaxShots caps per-request shot counts; DefaultShots is used when a
	// request omits shots.
	MaxShots     int
	DefaultShots int
	// MaxQubits rejects circuits wider than this with HTTP 400 (<= 0
	// selects DefaultMaxQubits; values above 64 are clamped to 64).
	MaxQubits int
	// RequestTimeout is the per-request deadline; requests may lower it
	// (timeout_ms) but never raise it. Blown deadlines are HTTP 504.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (<= 0 selects DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Metrics receives the serve_* metrics plus the usual dd_*/phase_*
	// series from the simulation workers. nil creates a private registry
	// (a daemon always wants its own numbers — expose them with DebugAddr).
	Metrics *obs.Registry
	// Tracer, when non-nil, is a stream trace (obs.NewStreamTrace) that
	// receives the simulations' op, GC and verify records, process events
	// (warm restart, failed snapshot persists), and a copy of every
	// finished request trace.
	Tracer *obs.RequestTrace
	// DebugAddr, when non-empty, starts an obs.ServeDebug server (Prometheus
	// /metrics, /metrics.json, expvar, pprof) on that address.
	DebugAddr string
	// SnapshotDir, when non-empty, persists every frozen snapshot to a
	// crash-safe on-disk store (internal/snapstore) keyed by the canonical
	// circuit hash, and warm-loads the store on Start: a restarted daemon
	// serves previously simulated circuits from disk with zero strong
	// simulations. Files failing their CRC or invariant audit are
	// quarantined and re-simulated; persistence failures degrade to
	// serving uncached, never to request errors.
	SnapshotDir string
	// DisableRequestTraces turns off per-request span collection — no
	// X-Weaksim-Trace-Id header, no debug=1 breakdown, and no per-request
	// flight-recorder records. The disabled path allocates nothing per
	// request (the flight recorder still captures trips).
	DisableRequestTraces bool
	// FlightSlots sizes the flight-recorder ring (records, not requests;
	// <= 0 selects obs.DefaultFlightSlots).
	FlightSlots int
	// FlightDir, when non-empty, receives JSONL ring dumps when the
	// recorder trips (panic, injected fault, SLO fast-burn breach). Empty
	// keeps dumps HTTP-only (GET /debug/flight).
	FlightDir string
	// SLOs configures per-endpoint latency/availability objectives for
	// /v1/slo and the fast-burn trip signal. nil selects
	// DefaultSLOs(RequestTimeout); an explicit empty slice disables SLO
	// evaluation.
	SLOs []SLO
	// JobsDir, when non-empty, makes the batch-job store durable: specs and
	// chunk checkpoints go to a write-ahead log there, and a restarted
	// daemon resumes every non-terminal job. Empty keeps jobs in memory
	// only (they still run, but do not survive a restart).
	JobsDir string
	// JobWorkers sizes the chunk-executor pool (<= 0 selects
	// job.DefaultWorkers).
	JobWorkers int
	// JobTenantWeights maps tenant name to fair-share weight (absent = 1).
	JobTenantWeights map[string]int
	// JobMaxPerTenant is the per-tenant non-terminal job quota (<= 0
	// selects job.DefaultMaxPerTenant); overruns are HTTP 429.
	JobMaxPerTenant int
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSampleWorkers <= 0 {
		c.MaxSampleWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxShots <= 0 {
		c.MaxShots = DefaultMaxShots
	}
	if c.DefaultShots <= 0 {
		c.DefaultShots = DefaultShots
	}
	if c.MaxQubits <= 0 || c.MaxQubits > DefaultMaxQubits {
		c.MaxQubits = DefaultMaxQubits
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.SLOs == nil {
		c.SLOs = DefaultSLOs(c.RequestTimeout)
	}
	return c
}

// Server is a running (or startable) sampling daemon.
type Server struct {
	cfg   Config
	cache *snapCache
	pool  *simPool
	http  *http.Server
	ln    net.Listener
	debug *obs.DebugServer
	store *snapstore.Store
	jobs  *job.Manager
	start time.Time

	// draining flips when Shutdown begins: /readyz turns 503 so load
	// balancers stop routing here, while /healthz stays 200 — the process is
	// alive and finishing its in-flight work.
	draining atomic.Bool

	// baseCtx governs simulation jobs: it outlives individual requests (a
	// flight is a shared asset) and is cancelled only when a drain deadline
	// forces shutdown.
	baseCtx context.Context
	cancel  context.CancelFunc

	reqTotal  *obs.Counter
	reqErrors *obs.Counter
	inflight  *obs.Gauge
	shotsCtr  *obs.Counter

	// Request-scoped observability layer: the always-on flight recorder, the
	// SLO burn-rate engine feeding it, per-endpoint latency histograms
	// backing /v1/stats percentiles, and the injected-fault counter.
	recorder   *obs.FlightRecorder
	slo        *sloEngine
	epHists    map[string]*obs.Histogram
	faultFired *obs.Counter

	// Snapshot-shipping counters: frames served to peers (GET), frames
	// installed from peers (PUT), and frames rejected by the integrity
	// ladder or the codec version gate; and snapshots the store failed to
	// persist.
	snapServed   *obs.Counter
	snapInstalls *obs.Counter
	snapRejects  *obs.Counter
	persistFails *obs.Counter
}

// tracedEndpoints are the routes wrapped by the observability middleware,
// each with the metric-name stem of its latency histogram.
var tracedEndpoints = map[string]string{
	"/v1/sample":   "sample",
	"/v1/circuits": "circuits",
	"/v1/stats":    "stats",
	"/v1/slo":      "slo",
	"/healthz":     "healthz",
	"/readyz":      "readyz",
	"/v1/jobs":     "jobs",
	// Every /v1/jobs/{id}[...] request lands in one histogram, keyed by the
	// route prefix.
	"/v1/jobs/": "job",
	// The snapshot-shipping route is keyed by its prefix; every
	// /v1/snapshot/{hash} request lands in one histogram.
	snapshotPathPrefix: "snapshot",
}

// New builds a Server from cfg without binding the listen socket yet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		cache:     newSnapCache(cfg.CacheBytes, reg),
		pool:      newSimPool(cfg.SimWorkers, cfg.QueueDepth, reg),
		baseCtx:   baseCtx,
		cancel:    cancel,
		start:     time.Now(),
		reqTotal:  reg.Counter("serve_requests_total"),
		reqErrors: reg.Counter("serve_errors_total"),
		inflight:  reg.Gauge("serve_inflight"),
		shotsCtr:  reg.Counter("serve_shots_total"),
	}
	s.recorder = obs.NewFlightRecorder(cfg.FlightSlots,
		obs.WithFlightDir(cfg.FlightDir),
		obs.WithFlightTrips(reg.Counter("serve_flight_trips_total")))
	s.slo = newSLOEngine(cfg.SLOs, s.recorder, reg)
	s.faultFired = reg.Counter("serve_fault_fired_total")
	s.snapServed = reg.Counter("serve_snapshot_served_total")
	s.snapInstalls = reg.Counter("serve_snapshot_installs_total")
	s.snapRejects = reg.Counter("serve_snapshot_rejects_total")
	obs.RegisterHelp("serve_snapshot_persist_failures_total",
		"Frozen snapshots the on-disk store failed to persist (they re-simulate after a restart).")
	s.persistFails = reg.Counter("serve_snapshot_persist_failures_total")
	s.epHists = make(map[string]*obs.Histogram, len(tracedEndpoints))
	for path, stem := range tracedEndpoints {
		name := "serve_endpoint_" + stem + "_ns"
		obs.RegisterHelp(name, "Request latency for "+path+" in nanoseconds.")
		s.epHists[path] = reg.Histogram(name, obs.ServeLatencyBounds)
	}
	// The batch-job subsystem rides the same cache/flight/pool machinery via
	// jobSnapshot; it always exists (in-memory without JobsDir) so the API
	// surface does not depend on deployment flags.
	s.jobs = job.NewManager(job.Config{
		Dir:           cfg.JobsDir,
		Workers:       cfg.JobWorkers,
		TenantWeights: cfg.JobTenantWeights,
		MaxPerTenant:  cfg.JobMaxPerTenant,
		Snapshot:      s.jobSnapshot,
		Metrics:       reg,
		Recorder:      s.recorder,
	})
	s.http = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s
}

// Start binds the configured address and serves in the background until
// Shutdown. It returns once the listener is bound, so Addr is valid
// immediately after.
func (s *Server) Start() error {
	if s.cfg.SnapshotDir != "" {
		store, err := snapstore.Open(s.cfg.SnapshotDir)
		if err != nil {
			return err
		}
		store.SetObserver(s.cfg.Metrics)
		s.store = store
		s.warmRestart()
	}
	// Jobs start before the listener: WAL replay resumes any non-terminal
	// jobs immediately (their chunks run through the same pool the HTTP
	// surface uses), and a replay failure should abort startup, not serve.
	if err := s.jobs.Start(); err != nil {
		return fmt.Errorf("serve: job store: %w", err)
	}
	addr := s.cfg.Addr
	if addr == "" {
		addr = ":0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	if s.cfg.DebugAddr != "" {
		dbg, err := obs.ServeDebug(s.cfg.DebugAddr, s.cfg.Metrics,
			obs.WithDebugFlightRecorder(s.recorder))
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: debug server: %w", err)
		}
		s.debug = dbg
	}
	// Every injected fault that fires lands in the flight recorder — the
	// chaos matrix's outcomes become post-hoc debuggable ring dumps instead
	// of bare counters. The observer is process-global (the fault registry
	// is); the last started server owns it until shutdown.
	fault.SetObserver(func(point string, class fault.Class) {
		s.faultFired.Inc()
		s.recorder.Trip("fault:"+point, map[string]any{"class": class.String()})
	})
	go func() { _ = s.http.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Metrics returns the daemon's registry (never nil after New).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Shutdown drains the daemon gracefully: stop accepting connections, let
// in-flight requests finish, stop the simulation pool (running jobs observe
// cancellation only if ctx expires first), and close the debug server. Safe
// to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	fault.SetObserver(nil)
	err := s.http.Shutdown(ctx)
	// Jobs stop before the pool closes: in-flight chunks get to finish (and
	// checkpoint) while their snapshot lookups can still run; whatever the
	// drain window cuts off resumes from the WAL on the next start.
	if jerr := s.jobs.Stop(ctx); err == nil {
		err = jerr
	}
	if perr := s.pool.close(ctx); err == nil {
		err = perr
	}
	// After the drain window, abort any still-running simulations.
	s.cancel()
	if s.debug != nil {
		_ = s.debug.Close()
	}
	return err
}

// Close shuts down immediately without draining.
func (s *Server) Close() error {
	s.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// simulate is the computeFunc body: one strong simulation + freeze under the
// server's node budget, producing the immutable cache entry. It runs on a
// simulation worker, governed by the server's base context plus the request
// deadline budget — not by any single client's context, because the result
// is shared by every request coalesced onto the flight.
func (s *Server) simulate(rt *obs.RequestTrace, key string, circ *circuit.Circuit) (*entry, error) {
	// Fault hook for the whole simulation stage. A panic class here unwinds
	// into snapCache.run's recovery — the regression the chaos suite pins is
	// that the daemon answers HTTP 500 and keeps serving.
	if err := fault.Hit(fault.ServeSim); err != nil {
		return nil, fmt.Errorf("serve: simulation stage: %w", err)
	}
	// A snapshot persisted by an earlier process (or another instance
	// sharing the directory) short-circuits the simulation entirely; a
	// corrupt file is quarantined inside Get and we fall through to
	// re-simulate.
	if s.store != nil {
		if snap, err := s.store.Get(key); err == nil {
			if ent, err := newEntry(key, snap, 0); err == nil {
				rt.Event(obs.PhaseServe, "snapstore-hit", map[string]any{"snapstore_hit": key})
				return ent, nil
			}
		}
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	defer cancel()
	// The simulation runs on a pool worker under the server's base context;
	// its phase spans still belong to the leader request's trace.
	reg := s.cfg.Metrics
	begin := time.Now()

	sp := obs.StartSpan(reg, rt, obs.PhaseBuild)
	mgrOpts := []dd.Option{dd.WithNormalization(s.cfg.Norm)}
	if s.cfg.NodeBudget > 0 {
		mgrOpts = append(mgrOpts, dd.WithNodeBudget(s.cfg.NodeBudget))
	}
	ds, err := sim.NewDD(circ,
		sim.WithManagerOptions(mgrOpts...),
		sim.WithObservability(reg, s.cfg.Tracer))
	sp.End(errAttrs(err))
	if err != nil {
		return nil, err
	}
	sp = obs.StartSpan(reg, rt, obs.PhaseApply)
	edge, err := ds.RunContext(ctx)
	sp.End(errAttrs(err))
	if err != nil {
		return nil, err
	}
	// The freeze phase ends with the sampler's walk table built: the entry
	// is what sampling reads.
	sp = obs.StartSpan(reg, rt, obs.PhaseFreeze)
	snap, err := ds.Manager().Freeze(edge)
	var ent *entry
	if err == nil {
		ent, err = newEntry(key, snap, 0)
	}
	if err != nil {
		sp.End(errAttrs(err))
		return nil, err
	}
	sp.End(map[string]any{"nodes": snap.Len(), "bytes": snap.Bytes()})
	reg.Gauge("snapshot_nodes").Set(int64(snap.Len()))
	reg.Gauge("snapshot_bytes").Set(int64(snap.Bytes()))
	s.persist(key, snap)
	ent.simNS = time.Since(begin).Nanoseconds()
	return ent, nil
}

// errAttrs renders an error as span attributes (nil for success, so the
// success path allocates nothing beyond the span itself).
func errAttrs(err error) map[string]any {
	if err == nil {
		return nil
	}
	return map[string]any{"error": err.Error()}
}

// persist writes a freshly frozen snapshot to the store. Persistence is
// strictly best-effort: a full disk, an injected fault, even a panic in the
// store must degrade to "this circuit re-simulates after a restart" — never
// to a failed request. The request's counts come from the in-memory
// snapshot either way. A failure is counted and recorded in the flight
// ring, so it is visible to an operator.
func (s *Server) persist(key string, snap *dd.Snapshot) {
	if s.store == nil {
		return
	}
	var err error
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*fault.InjectedPanic); !ok {
				panic(r)
			}
			err = fmt.Errorf("panic: %v", r)
		}
		if err != nil {
			s.persistFails.Inc()
			s.event("persist-failed", map[string]any{"key": key, "error": err.Error()})
		}
	}()
	err = s.store.Put(key, snap)
}

// event records a process-level serve event in the flight ring and, when
// one is attached, the library stream.
func (s *Server) event(name string, attrs map[string]any) {
	s.recorder.Record(obs.SpanRecord{Kind: "event", Phase: obs.PhaseServe, Name: name, Attrs: attrs})
	s.cfg.Tracer.Event(obs.PhaseServe, name, attrs)
}

// warmRestart loads every verified snapshot from the store into the cache
// before the listener opens. Corrupt files are quarantined by the store; a
// key that fails to load simply stays cold and re-simulates on first
// request.
func (s *Server) warmRestart() {
	keys, err := s.store.Keys()
	if err != nil {
		return
	}
	loaded := 0
	for _, key := range keys {
		snap, err := s.store.Get(key)
		if err != nil {
			continue
		}
		ent, err := newEntry(key, snap, 0)
		if err != nil {
			continue
		}
		s.cache.insert(ent)
		loaded++
	}
	s.cfg.Metrics.Counter("serve_warm_loaded_total").Add(uint64(loaded))
	if loaded > 0 {
		s.event("warm-restart", map[string]any{"loaded": loaded, "dir": s.cfg.SnapshotDir})
	}
}

// lookup resolves the cache entry for a circuit: hit, join, or simulate.
//
// Trace flow through the single flight: the leader request's trace rides
// into the pool worker, which records the queue-wait span and then runs the
// compute. The compute closure takes a span mark first, so SpansSince(mark)
// is exactly the simulation's spans (build/apply/freeze) — published on the
// flight for coalesced waiters to adopt as shared spans. The publish happens
// before the flight resolves (run → finish → close(done)), which is the
// happens-before edge the waiters' reads rely on.
func (s *Server) lookup(ctx context.Context, key string, circ *circuit.Circuit) (*entry, bool, error) {
	rt := obs.TraceFromContext(ctx)
	return s.cache.getOrCompute(ctx, key, func(fl *flight) error {
		return s.pool.submitWith(rt, func() {
			mark := rt.Mark()
			s.cache.run(key, fl, func() (*entry, error) {
				ent, err := s.simulate(rt, key, circ)
				if err == nil {
					fl.traceID = rt.ID()
					fl.spans = rt.SpansSince(mark)
				}
				return ent, err
			})
		})
	})
}
