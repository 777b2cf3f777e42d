package serve

// HTTP surface of the sampling daemon.
//
//	POST /v1/sample    {qasm|circuit, shots?, seed?, workers?, timeout_ms?}
//	                   → {counts, qubits, shots, seed, workers, cached, ...}
//	GET  /v1/circuits  → named benchmark circuits (internal/algo)
//	GET  /v1/stats     → cache / queue / request statistics
//	GET  /healthz      → liveness + summary
//
// Errors always carry a structured JSON body:
//
//	{"error": {"code": "memory_out", "message": "...", "status": 507}}
//
// The governance → status mapping is the degradation ladder of PR 1 pushed
// through the network boundary: MO → 507, TO → 504, queue-full → 429 with
// Retry-After, draining → 503.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/circuit/qasm"
	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/job"
	"weaksim/internal/obs"
	"weaksim/internal/statevec"
)

// resolveCircuit builds and validates the circuit a request names: exactly
// one of OpenQASM source src and benchmark name. It is the one resolver of
// /v1/sample, /v1/jobs, a job's chunks and the cluster router's KeyMemo.
func resolveCircuit(src, name string) (*circuit.Circuit, error) {
	if (src == "") == (name == "") {
		return nil, errors.New(`exactly one of "qasm" and "circuit" must be set`)
	}
	var circ *circuit.Circuit
	var err error
	if name != "" {
		circ, err = algo.Generate(name)
	} else {
		circ, err = qasm.Parse(src, "request")
	}
	if err != nil {
		return nil, err
	}
	if err := circ.Validate(); err != nil {
		return nil, err
	}
	return circ, nil
}

// scanRequest reads a POST body of at most MaxBodyBytes into a pooled
// buffer and scans it under the schema allowed (front.go). The body's
// tokens point into the buffer, which the caller hands back with putBody.
// Every error is a bad request.
func (s *Server) scanRequest(r *http.Request, allowed member) (requestBody, *[]byte, error) {
	buf, err := readBody(r.Body, r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		return requestBody{}, nil, badRequest{err}
	}
	body, err := scanBody(*buf, allowed)
	if err != nil {
		putBody(buf)
		return requestBody{}, nil, badRequest{err}
	}
	return body, buf, nil
}

// keyFor returns the cache key of the circuit a request spells. A spelling
// the memo holds (probe, the cache's getBySpelling or spelled) returns its
// entry as well and resolves nothing: it passed every check below when it
// was remembered. Any other spelling is resolved within MaxQubits and
// hashed, and its circuit is returned for the lookup; every error is a bad
// request. With reg or rt set, the memo probe and the key are timed as the
// hash phase and a resolution, which unescapes the spelling first, as the
// parse phase.
func (s *Server) keyFor(reg *obs.Registry, rt *obs.RequestTrace, src spelling,
	probe func(spelling) (*entry, bool)) (string, *entry, *circuit.Circuit, error) {
	sp := obs.StartSpan(reg, rt, obs.PhaseHash)
	ent, ok := probe(src)
	sp.End(nil)
	if ok {
		return ent.key, ent, nil, nil
	}
	sp = obs.StartSpan(reg, rt, obs.PhaseParse)
	circ, err := src.resolve()
	if err == nil && circ.NQubits > s.cfg.MaxQubits {
		err = fmt.Errorf("circuit has %d qubits; this server accepts at most %d", circ.NQubits, s.cfg.MaxQubits)
	}
	sp.End(errAttrs(err))
	if err != nil {
		return "", nil, nil, badRequest{err}
	}
	sp = obs.StartSpan(reg, rt, obs.PhaseHash)
	key := CircuitKey(circ, s.cfg.Norm, false)
	sp.End(nil)
	return key, nil, circ, nil
}

// sampleRequest is a POST /v1/sample body, its defaults filled in. The
// body's members are "qasm" or "circuit", "shots", "seed", "workers" and
// "timeout_ms".
type sampleRequest struct {
	// spelling names the circuit: the "qasm" or "circuit" token.
	spelling
	// shots is the number of measurement samples (default DefaultShots,
	// capped at MaxShots).
	shots int
	// seed seeds sampling; omitted means 1. Counts are a pure function of
	// (circuit, seed, shots), and /v1/jobs draws the same counts.
	seed uint64
	// workers shards the shot batch across concurrent lock-free walkers
	// over the cached snapshot (default 1, capped at MaxSampleWorkers). It
	// changes latency, never counts.
	workers int
	// timeoutMS lowers the request deadline below the server default.
	timeoutMS int64
}

// sampleResponse is the POST /v1/sample success body (see writeSample).
type sampleResponse struct {
	// Counts maps measured bitstrings (most significant qubit first) to
	// occurrence counts, keys in ascending order; values sum to Shots.
	Counts countsJSON `json:"counts"`
	sampleMeta
}

// sampleMeta is every /v1/sample body member after the counts.
type sampleMeta struct {
	Qubits  int    `json:"qubits"`
	Shots   int    `json:"shots"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	// Cached reports whether the frozen snapshot was already resident (no
	// strong simulation ran for this request, not even a shared one).
	Cached bool `json:"cached"`
	// CircuitKey is the canonical circuit hash — the cache key.
	CircuitKey string `json:"circuit_key"`
	// SnapshotNodes is the frozen DD size (the paper's "size" column).
	SnapshotNodes int `json:"snapshot_nodes"`
	// SimNS is the wall-clock cost of the strong simulation + freeze that
	// built the snapshot (amortized across every request that reuses it).
	SimNS int64 `json:"sim_ns"`
	// SampleNS is this request's sampling wall-clock.
	SampleNS int64 `json:"sample_ns"`
	// Trace echoes the request's span tree and per-phase timing breakdown
	// when the request asked for it (?debug=1) and tracing is enabled.
	Trace *traceDebug `json:"trace,omitempty"`
}

// traceDebug is the ?debug=1 trace echo: where this request's latency went.
type traceDebug struct {
	// TraceID matches the X-Weaksim-Trace-Id response header.
	TraceID string `json:"trace_id"`
	// PhaseNS sums the request's own (non-shared) timed spans per phase.
	// For a cold request the sequential phases — parse, queue, build,
	// apply, freeze, sample — tile the wall time.
	PhaseNS map[string]int64 `json:"phase_ns"`
	// Spans is the raw span list, including spans adopted from a coalesced
	// single-flight simulation (shared=true, same span IDs as the leader).
	Spans []obs.SpanRecord `json:"spans"`
}

// errorBody is the structured error envelope of every non-2xx response.
type errorBody struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	// Code is a stable machine-readable error class: bad_request,
	// memory_out, timeout, queue_full, draining, internal.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// Status echoes the HTTP status code.
	Status int `json:"status"`
	// RetryAfterMS suggests a backoff for retryable rejections (queue_full).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// retryAfter is the backoff hint attached to 429 responses.
const retryAfter = time.Second

// drainRetryAfter is the backoff hint attached to 503 (draining) responses:
// long enough for the orchestrator to restart or reroute, same parity as
// the 429 hint so every retryable rejection carries explicit guidance.
const drainRetryAfter = 5 * time.Second

// Handler returns the daemon's HTTP handler (also useful under httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sample", s.route("/v1/sample", s.handleSample))
	mux.HandleFunc("/v1/circuits", s.route("/v1/circuits", s.handleCircuits))
	mux.HandleFunc("/v1/stats", s.route("/v1/stats", s.handleStats))
	mux.HandleFunc("/v1/slo", s.route("/v1/slo", s.handleSLO))
	mux.HandleFunc("/v1/jobs", s.route("/v1/jobs", s.handleJobs))
	mux.HandleFunc("/v1/jobs/", s.route("/v1/jobs/", s.handleJobByID))
	mux.HandleFunc("/healthz", s.route("/healthz", s.handleHealthz))
	mux.HandleFunc("/readyz", s.route("/readyz", s.handleReadyz))
	mux.HandleFunc(snapshotPathPrefix, s.route(snapshotPathPrefix, s.handleSnapshot))
	mux.HandleFunc("/debug/flight", s.handleFlight)
	return mux
}

// statusWriter captures the response status for the observability envelope.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Status returns the written status (200 when the handler never set one).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// route wraps an endpoint handler in the request-scoped observability
// envelope:
//
//   - a RequestTrace is opened (adopting an inbound W3C traceparent trace ID
//     when present), attached to the request context, and echoed in
//     X-Weaksim-Trace-Id on EVERY response — success or error;
//   - the per-endpoint latency histogram and the SLO burn-rate engine
//     observe the request's duration and status;
//   - last-resort panic isolation: one structured 500, a flight-recorder
//     trip with the ring dumped to disk, and the daemon keeps serving.
//
// With Config.DisableRequestTraces the trace stays nil and every rt call
// below is an allocation-free no-op (pinned by the obs zero-alloc test).
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		var rt *obs.RequestTrace
		if !s.cfg.DisableRequestTraces {
			rt = obs.StartRequest(r.Header.Get("traceparent"), s.recorder, s.cfg.Tracer)
			w.Header().Set("X-Weaksim-Trace-Id", rt.ID().String())
			r = r.WithContext(obs.ContextWithTrace(r.Context(), rt))
		}
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.cache.panics.Inc()
				if name == "/v1/sample" {
					s.reqErrors.Inc()
				}
				s.writeError(sw, &panicError{val: p})
				s.recorder.Trip("panic", map[string]any{
					"endpoint": name, "panic": fmt.Sprint(p), "trace": rt.ID().String(),
				})
			}
			dur := time.Since(begin)
			s.epHists[name].ObserveDuration(dur)
			s.slo.observe(name, dur, sw.Status())
			rt.Finish(name, sw.Status())
		}()
		h(sw, r)
	}
}

// classify maps an error to its HTTP status and stable code, mirroring
// cmd/weaksim's exit codes (MO=3 → 507, TO=4 → 504).
func classify(err error) (int, string) {
	var pe *panicError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "panic" // recovered worker panic; daemon keeps serving
	case errors.Is(err, dd.ErrNodeBudget), errors.Is(err, statevec.ErrMemoryOut):
		return http.StatusInsufficientStorage, "memory_out" // 507: the paper's MO
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout" // 504: the paper's TO
	case errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "cancelled"
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full" // 429 + Retry-After
	case errors.Is(err, job.ErrQuota):
		return http.StatusTooManyRequests, "quota_exceeded" // 429 + Retry-After
	case errors.Is(err, job.ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining" // 503 + Retry-After
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// badRequest wraps a 400-class error so writeError can classify it.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

// sampleError answers a /v1/sample request with err. serve_errors_total
// counts these answers (and the route's recovered /v1/sample panics) only,
// so it never exceeds serve_requests_total.
func (s *Server) sampleError(w http.ResponseWriter, err error) {
	s.reqErrors.Inc()
	s.writeError(w, err)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	var br badRequest
	if errors.As(err, &br) {
		status, code = http.StatusBadRequest, "bad_request"
	}
	info := errorInfo{Code: code, Message: err.Error(), Status: status}
	switch status {
	case http.StatusTooManyRequests:
		info.RetryAfterMS = retryAfter.Milliseconds()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds())))
	case http.StatusServiceUnavailable:
		info.RetryAfterMS = drainRetryAfter.Milliseconds()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(drainRetryAfter.Seconds())))
	}
	writeJSON(w, status, errorBody{Error: info})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// parseRequest scans a sample request and resolves its sampling
// parameters; keyFor resolves its circuit. The request's spelling points
// into the returned body buffer, which the caller hands back with putBody
// once it is done with the request.
func (s *Server) parseRequest(r *http.Request) (sampleRequest, *[]byte, error) {
	body, buf, err := s.scanRequest(r, sampleMembers)
	if err != nil {
		return sampleRequest{}, nil, err
	}
	req := sampleRequest{spelling: body.spelling, shots: body.shots, seed: 1,
		workers: body.workers, timeoutMS: body.timeoutMS}
	if body.seeded {
		req.seed = body.seed
	}
	if req.shots == 0 {
		req.shots = s.cfg.DefaultShots
	}
	if req.workers == 0 {
		req.workers = 1
	}
	switch {
	case req.shots < 1:
		err = fmt.Errorf("shots must be positive, got %d", req.shots)
	case req.shots > s.cfg.MaxShots:
		err = fmt.Errorf("shots %d exceeds the per-request cap %d", req.shots, s.cfg.MaxShots)
	case req.workers < 1 || req.workers > s.cfg.MaxSampleWorkers:
		err = fmt.Errorf("workers must be in [1, %d], got %d", s.cfg.MaxSampleWorkers, req.workers)
	case req.timeoutMS < 0:
		err = fmt.Errorf("timeout_ms must be non-negative, got %d", req.timeoutMS)
	}
	if err != nil {
		putBody(buf)
		return sampleRequest{}, nil, badRequest{err}
	}
	return req, buf, nil
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: errorInfo{
			Code: "method_not_allowed", Message: "use POST", Status: http.StatusMethodNotAllowed}})
		return
	}
	s.reqTotal.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	// Panic isolation lives in the route middleware (one structured 500 plus
	// a flight-recorder trip; the daemon keeps serving), and so does the
	// request's root span.
	rt := obs.TraceFromContext(r.Context())

	sp := obs.StartSpan(s.cfg.Metrics, rt, obs.PhaseParse)
	req, buf, err := s.parseRequest(r)
	sp.End(errAttrs(err))
	if err != nil {
		s.sampleError(w, err)
		return
	}
	defer putBody(buf)
	key, ent, circ, err := s.keyFor(s.cfg.Metrics, rt, req.spelling, s.cache.getBySpelling)
	if err != nil {
		s.sampleError(w, err)
		return
	}

	// Per-request deadline: the server default, lowered by timeout_ms.
	timeout := s.cfg.RequestTimeout
	if req.timeoutMS > 0 {
		if t := time.Duration(req.timeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	cached := ent != nil
	if !cached {
		if ent, cached, err = s.lookup(ctx, key, circ); err != nil {
			s.sampleError(w, err)
			return
		}
		s.cache.remember(req.spelling, ent)
	}

	// Sampling: lock-free walks over the immutable snapshot, sharded across
	// the requested worker count. Counts are a pure function of
	// (circuit, seed, shots) — rerunning the request reproduces them bit for
	// bit, at any cache temperature and worker count.
	sp = obs.StartSpan(s.cfg.Metrics, rt, obs.PhaseSample)
	tally, err := core.TallyParallelContext(ctx, ent.sampler, req.seed, req.shots, req.workers)
	if err != nil {
		sp.End(errAttrs(err))
		s.sampleError(w, err)
		return
	}
	sampleNS := sp.End(map[string]any{"shots": req.shots, "workers": req.workers}).Nanoseconds()
	s.shotsCtr.Add(uint64(req.shots))

	resp := sampleResponse{Counts: countsJSON{tally, ent.qubits}, sampleMeta: sampleMeta{
		Qubits:        ent.qubits,
		Shots:         req.shots,
		Seed:          req.seed,
		Workers:       req.workers,
		Cached:        cached,
		CircuitKey:    key,
		SnapshotNodes: ent.sampler.Snapshot().Len(),
		SimNS:         ent.simNS,
		SampleNS:      sampleNS,
	}}
	debug := rt != nil && r.URL.Query().Get("debug") == "1"
	sp = obs.StartSpan(s.cfg.Metrics, rt, obs.PhaseEncode)
	writeSample(w, &resp, func(meta *sampleMeta) {
		sp.End(nil)
		if debug {
			meta.Trace = &traceDebug{
				TraceID: rt.ID().String(),
				PhaseNS: rt.PhaseBreakdown(),
				Spans:   rt.Spans(),
			}
		}
	})
}

func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: errorInfo{
			Code: "method_not_allowed", Message: "use GET", Status: http.StatusMethodNotAllowed}})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table1": algo.TableIBenchmarks(),
	})
}

// statsResponse is the GET /v1/stats body.
type statsResponse struct {
	UptimeMS      int64                    `json:"uptime_ms"`
	Requests      uint64                   `json:"requests_total"`
	Errors        uint64                   `json:"errors_total"`
	Shots         uint64                   `json:"shots_total"`
	Sims          uint64                   `json:"sims_total"`
	QueueDepth    int                      `json:"queue_depth"`
	QueueRejected uint64                   `json:"queue_rejected_total"`
	Cache         cacheStats               `json:"cache"`
	Endpoints     map[string]endpointStats `json:"endpoints"`
}

// endpointStats summarizes one endpoint's latency distribution: request
// count plus p50/p95/p99 estimated by linear interpolation within the
// serve_endpoint_* histogram buckets (obs.HistogramSnapshot.Quantile).
type endpointStats struct {
	Requests uint64  `json:"requests"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
}

func (s *Server) statsNow() statsResponse {
	eps := make(map[string]endpointStats, len(s.epHists))
	for path, h := range s.epHists {
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		eps[path] = endpointStats{
			Requests: snap.Count,
			P50MS:    snap.Quantile(0.50) / 1e6,
			P95MS:    snap.Quantile(0.95) / 1e6,
			P99MS:    snap.Quantile(0.99) / 1e6,
		}
	}
	return statsResponse{
		UptimeMS:      time.Since(s.start).Milliseconds(),
		Requests:      s.reqTotal.Value(),
		Errors:        s.reqErrors.Value(),
		Shots:         s.shotsCtr.Value(),
		Sims:          s.pool.sims.Value(),
		QueueDepth:    s.pool.queued(),
		QueueRejected: s.pool.rejected.Value(),
		Cache:         s.cache.stats(),
		Endpoints:     eps,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsNow())
}

// handleSLO reports the configured objectives with 5m/1h burn rates and
// remaining error budget per endpoint.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: errorInfo{
			Code: "method_not_allowed", Message: "use GET", Status: http.StatusMethodNotAllowed}})
		return
	}
	writeJSON(w, http.StatusOK, s.slo.report())
}

// handleFlight streams the flight-recorder ring as JSONL, oldest record
// first — the same dump a trip writes to disk, available on demand.
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.recorder.WriteJSONL(w)
}

// handleHealthz is the liveness probe: 200 for as long as the process can
// answer HTTP at all, draining or not. Restart the process when this fails.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": status,
		"stats":  s.statsNow(),
	})
}

// handleReadyz is the readiness probe: 503 from the moment a drain begins,
// so load balancers stop routing new requests here while in-flight work
// finishes. Distinct from liveness — a draining process is healthy. The
// body names the core.WalkVersion the replica's counts are drawn under, so
// a router keeps each circuit on replicas of one walk.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "walk": core.WalkVersion})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "walk": core.WalkVersion})
}
