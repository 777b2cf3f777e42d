package cluster

// The router: one HTTP front door for a fleet of weaksimd replicas.
//
// Request path for POST /v1/sample:
//
//  1. read the body and compute the canonical circuit key with a
//     serve.KeyMemo — the router and every replica's cache must name the
//     same owner, so the routing function IS the cache-key function. The
//     memo scans the body as a replica does and resolves and hashes each
//     spelling once;
//  2. walk the consistent-hash ring for the primary and its failover
//     candidates (healthy candidates first, ejected ones only as a last
//     resort when the whole candidate set is down);
//  3. if the ring says the primary changed since the circuit was last
//     served (the old holder is still warm), ship the frozen snapshot
//     holder→primary before forwarding, so the new primary answers warm
//     instead of re-simulating;
//  4. forward with a W3C traceparent so the replica joins the router's
//     trace; on a transport failure or a 502/503, fail over to the next
//     candidate — never on 507/504 (deterministic governance: MO/TO) and
//     never on 500 (the request reached a sim worker; re-sending could only
//     duplicate the expensive strong simulation);
//  5. on success, remember the placement and replicate the snapshot to the
//     remaining ring candidates in the background, so the next failover
//     target is already warm.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/obs"
	"weaksim/internal/serve"
)

// Defaults for the zero Config.
const (
	DefaultProbeInterval  = time.Second
	DefaultProbeTimeout   = 750 * time.Millisecond
	DefaultFailThreshold  = 2
	DefaultMaxBackoff     = 15 * time.Second
	DefaultReplicaCount   = 1
	DefaultWatchInterval  = 2 * time.Second
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBodyBytes   = 4 << 20
)

// keyMemoBytes bounds the router's spelling -> key memo: at least 128 keys
// even when each holds maxSpellings spellings of the largest size a
// replica's memo takes (64 KiB).
const keyMemoBytes = 32 << 20

// Config configures a cluster router. Backends and BackendsFile are
// mutually composable: the static list seeds the fleet and the file, when
// set, is polled and replaces the membership whenever it changes.
type Config struct {
	// Addr is the router's listen address (":0" = ephemeral).
	Addr string
	// Backends is the static replica list: base URLs like
	// "http://10.0.0.7:8080" (a bare host:port gets "http://" prepended).
	Backends []string
	// BackendsFile, when non-empty, is a watched membership file — one
	// backend URL per line, blank lines and #-comments ignored. The file is
	// re-read every WatchInterval and the ring is rebuilt when it changes.
	BackendsFile string
	// WatchInterval is the BackendsFile poll cadence (0 selects the
	// default; ignored without BackendsFile).
	WatchInterval time.Duration
	// ReplicaCount is how many warm copies beyond the primary each
	// circuit's snapshot is replicated to (also the failover depth). 0
	// selects DefaultReplicaCount; -1 disables replication (primary only).
	ReplicaCount int
	// VirtualNodes is the consistent-hash virtual-node count per backend
	// (0 = default).
	VirtualNodes int
	// ProbeInterval / ProbeTimeout drive the /readyz health prober.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is how many consecutive failures (probes or forward
	// transport errors) eject a backend (0 = default).
	FailThreshold int
	// MaxBackoff caps the exponential re-probe backoff of an ejected
	// backend (0 = default).
	MaxBackoff time.Duration
	// Norm must match the replicas' normalization scheme: the canonical
	// circuit key hashes it, so a mismatch would route and cache under
	// different names.
	Norm dd.Norm
	// RequestTimeout bounds one forwarded exchange (0 = default).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds inbound request bodies (0 = default).
	MaxBodyBytes int64
	// Metrics receives the cluster_* series (nil creates a private
	// registry).
	Metrics *obs.Registry
	// Client overrides the outbound HTTP client (nil builds one with
	// RequestTimeout).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.WatchInterval <= 0 {
		c.WatchInterval = DefaultWatchInterval
	}
	if c.ReplicaCount == 0 {
		c.ReplicaCount = DefaultReplicaCount
	}
	if c.ReplicaCount < 0 {
		c.ReplicaCount = 0
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
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
	return c
}

// Router is the cluster front door. Create with NewRouter, bind with Start,
// stop with Shutdown.
type Router struct {
	cfg    Config
	client *http.Client
	http   *http.Server
	ln     net.Listener

	mu          sync.Mutex
	backends    map[string]*backend
	ring        *ring
	ringVersion uint64
	// placement remembers which backend most recently answered 200 for a
	// circuit key — the "warm holder" consulted when the ring reassigns the
	// key, so the new primary is shipped the snapshot instead of
	// re-simulating.
	placement map[string]string
	// shipped marks (key, backend) pairs that hold the snapshot (or are
	// permanently skipped: a 409 version mismatch never retries).
	shipped map[string]map[string]bool

	fileMod time.Time
	fileLen int64

	// keys resolves request bodies to circuit keys, remembering spellings.
	keys *serve.KeyMemo

	shipWG   sync.WaitGroup
	stopCh   chan struct{}
	stopOnce sync.Once
	draining bool

	reqTotal      *obs.Counter
	reqErrors     *obs.Counter
	failovers     *obs.Counter
	probeEject    *obs.Counter
	probeRestore  *obs.Counter
	shipAttempts  *obs.Counter
	shipInstalled *obs.Counter
	shipFailed    *obs.Counter
	gBackends     *obs.Gauge
	gHealthy      *obs.Gauge
	gRingVersion  *obs.Gauge
}

// NewRouter validates cfg and builds the initial ring. With a BackendsFile
// the file is loaded immediately (and must parse, though it may be combined
// with a static seed list); at least one backend must result.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	for name, help := range map[string]string{
		"cluster_requests_total":         "Requests accepted by the cluster router.",
		"cluster_errors_total":           "Router requests that failed with no backend able to answer.",
		"cluster_failovers_total":        "Forward attempts redirected to a failover candidate after a transport error or 502/503.",
		"cluster_probe_ejections_total":  "Backends ejected from the ring by consecutive probe/forward failures.",
		"cluster_probe_reinstates_total": "Ejected backends reinstated by a successful /readyz probe.",
		"cluster_ship_attempts_total":    "Snapshot-shipping transfers started (warm replica -> target).",
		"cluster_ship_installed_total":   "Snapshot-shipping transfers installed on the target (HTTP 204).",
		"cluster_ship_failures_total":    "Snapshot-shipping transfers that failed (fetch/connect error, corruption, or version mismatch).",
		"cluster_backends":               "Configured backend count.",
		"cluster_backends_healthy":       "Backends currently in the routing set.",
		"cluster_ring_version":           "Monotonic membership version; increments on every ring rebuild.",
	} {
		obs.RegisterHelp(name, help)
	}
	r := &Router{
		cfg:           cfg,
		client:        cfg.Client,
		backends:      make(map[string]*backend),
		placement:     make(map[string]string),
		shipped:       make(map[string]map[string]bool),
		stopCh:        make(chan struct{}),
		keys:          serve.NewKeyMemo(cfg.Norm, keyMemoBytes),
		reqTotal:      reg.Counter("cluster_requests_total"),
		reqErrors:     reg.Counter("cluster_errors_total"),
		failovers:     reg.Counter("cluster_failovers_total"),
		probeEject:    reg.Counter("cluster_probe_ejections_total"),
		probeRestore:  reg.Counter("cluster_probe_reinstates_total"),
		shipAttempts:  reg.Counter("cluster_ship_attempts_total"),
		shipInstalled: reg.Counter("cluster_ship_installed_total"),
		shipFailed:    reg.Counter("cluster_ship_failures_total"),
		gBackends:     reg.Gauge("cluster_backends"),
		gHealthy:      reg.Gauge("cluster_backends_healthy"),
		gRingVersion:  reg.Gauge("cluster_ring_version"),
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: cfg.RequestTimeout}
	}
	names := append([]string(nil), cfg.Backends...)
	if cfg.BackendsFile != "" {
		fromFile, mod, size, err := readBackendsFile(cfg.BackendsFile)
		if err != nil {
			return nil, fmt.Errorf("cluster: backends file: %w", err)
		}
		names = append(names, fromFile...)
		r.fileMod, r.fileLen = mod, size
	}
	if err := r.setBackends(names); err != nil {
		return nil, err
	}
	r.http = &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second}
	return r, nil
}

// normalizeBackend canonicalizes one backend spec to a base URL with no
// trailing slash; bare host:port gets http://.
func normalizeBackend(s string) string {
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "/"))
	if s == "" {
		return ""
	}
	if !strings.HasPrefix(s, "http://") && !strings.HasPrefix(s, "https://") {
		s = "http://" + s
	}
	return s
}

// readBackendsFile parses a membership file: one backend per line, blank
// lines and #-comments ignored.
func readBackendsFile(path string) (names []string, mod time.Time, size int64, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, time.Time{}, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, time.Time{}, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names = append(names, line)
	}
	return names, fi.ModTime(), fi.Size(), nil
}

// setBackends replaces the membership: retained backends keep their health
// state and counters, new ones start healthy, removed ones leave the ring.
func (r *Router) setBackends(names []string) error {
	uniq := make(map[string]bool, len(names))
	var clean []string
	for _, n := range names {
		n = normalizeBackend(n)
		if n != "" && !uniq[n] {
			uniq[n] = true
			clean = append(clean, n)
		}
	}
	if len(clean) == 0 {
		return errors.New("cluster: no backends configured")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := make(map[string]*backend, len(clean))
	for _, n := range clean {
		if b, ok := r.backends[n]; ok {
			next[n] = b
		} else {
			next[n] = newBackend(n, r.cfg.Metrics)
		}
	}
	r.backends = next
	r.ring = buildRing(clean, r.cfg.VirtualNodes)
	r.ringVersion++
	r.gRingVersion.Set(int64(r.ringVersion))
	r.gBackends.Set(int64(len(clean)))
	for name, share := range r.ring.ownership() {
		next[name].gOwnPerMi.Set(int64(share * 1000))
	}
	r.refreshHealthyGaugeLocked()
	return nil
}

func (r *Router) refreshHealthyGaugeLocked() {
	n := 0
	for _, b := range r.backends {
		if b.isHealthy() {
			n++
		}
	}
	r.gHealthy.Set(int64(n))
}

// Start binds the listen address and launches the HTTP server, the health
// prober, and (when configured) the membership-file watcher.
func (r *Router) Start() error {
	addr := r.cfg.Addr
	if addr == "" {
		addr = ":0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	r.ln = ln
	go func() { _ = r.http.Serve(ln) }()
	go r.probeLoop()
	if r.cfg.BackendsFile != "" {
		go r.watchLoop()
	}
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (r *Router) Addr() string {
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Metrics returns the router's registry.
func (r *Router) Metrics() *obs.Registry { return r.cfg.Metrics }

// Shutdown stops the listener, the prober, and the watcher, then waits for
// in-flight replication transfers (until ctx expires).
func (r *Router) Shutdown(ctx context.Context) error {
	r.stopOnce.Do(func() {
		r.mu.Lock()
		r.draining = true
		r.mu.Unlock()
		close(r.stopCh)
	})
	err := r.http.Shutdown(ctx)
	done := make(chan struct{})
	go func() { r.shipWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	// Drop pooled backend connections, including ones the transport dialed
	// but never used — a replica draining later would otherwise wait out
	// net/http's StateNew grace period on them.
	r.client.CloseIdleConnections()
	return err
}

// Close shuts down with a one-second bound.
func (r *Router) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return r.Shutdown(ctx)
}

// Quiesce waits for every replication transfer currently in flight —
// deterministic tests and the cluster gate use it to observe the fleet at
// rest instead of sleeping.
func (r *Router) Quiesce() { r.shipWG.Wait() }

// probeLoop drives /readyz health checks until Shutdown.
func (r *Router) probeLoop() {
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-tick.C:
		}
		now := time.Now()
		r.mu.Lock()
		due := make([]*backend, 0, len(r.backends))
		for _, b := range r.backends {
			if b.probeDue(now) {
				due = append(due, b)
			}
		}
		r.mu.Unlock()
		var wg sync.WaitGroup
		for _, b := range due {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				r.probe(b)
			}(b)
		}
		wg.Wait()
	}
}

// probe checks one backend's /readyz and records the outcome.
func (r *Router) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.name+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		var ready struct {
			Walk int `json:"walk"`
		}
		if ok && json.NewDecoder(resp.Body).Decode(&ready) == nil && ready.Walk > 0 {
			b.noteWalk(ready.Walk)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if ok {
		if b.noteSuccess() {
			r.probeRestore.Inc()
		}
	} else if b.noteFailure(r.cfg.FailThreshold, r.cfg.ProbeInterval, r.cfg.MaxBackoff, time.Now()) {
		r.probeEject.Inc()
	}
	r.mu.Lock()
	r.refreshHealthyGaugeLocked()
	r.mu.Unlock()
}

// watchLoop polls the membership file and rebuilds the ring when it
// changes. A transiently unreadable or empty file keeps the previous
// membership — an operator mid-edit must not empty the ring.
func (r *Router) watchLoop() {
	tick := time.NewTicker(r.cfg.WatchInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-tick.C:
		}
		names, mod, size, err := readBackendsFile(r.cfg.BackendsFile)
		if err != nil || len(names) == 0 {
			continue
		}
		r.mu.Lock()
		changed := !mod.Equal(r.fileMod) || size != r.fileLen
		if changed {
			r.fileMod, r.fileLen = mod, size
		}
		r.mu.Unlock()
		if changed {
			_ = r.setBackends(names)
		}
	}
}

// candidates returns the ring's candidate backends for key — primary first,
// healthy before ejected (ejected ones stay as a last resort so a fully
// dark fleet still produces a real upstream error instead of a guess).
// Once the primary's /readyz has named its walk version, a candidate that
// reported another one is left out: counts are a function of (circuit,
// seed, shots) only under one walk, so during a rolling upgrade a key is
// never answered under two. A backend not yet probed stays in.
func (r *Router) candidates(key string) []*backend {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := r.ring.lookup(key, r.cfg.ReplicaCount+1)
	healthy := make([]*backend, 0, len(names))
	var ejected []*backend
	walk := 0
	if len(names) > 0 && r.backends[names[0]] != nil {
		walk = r.backends[names[0]].walkVersion()
	}
	for _, n := range names {
		b := r.backends[n]
		if b == nil {
			continue
		}
		if w := b.walkVersion(); walk != 0 && w != 0 && w != walk {
			continue
		}
		if b.isHealthy() {
			healthy = append(healthy, b)
		} else {
			ejected = append(ejected, b)
		}
	}
	return append(healthy, ejected...)
}

// outboundTraceparent adopts the inbound trace ID (minting one when absent)
// and returns the traceparent header for the forwarded hop, so the
// replica's request trace — and its X-Weaksim-Trace-Id response header —
// joins the caller's distributed trace across the router.
func outboundTraceparent(inbound string) (obs.TraceID, string) {
	tid, _, ok := obs.ParseTraceparent(inbound)
	if !ok {
		tid = obs.NewTraceID()
	}
	return tid, obs.Traceparent(tid, obs.NewSpanID())
}

// canFailover reports whether a received status may be retried on the next
// ring candidate. Only 502 and 503 qualify: the replica (or something in
// front of it) refused the request before doing the work — draining, load
// shedding, a dead proxy hop. 507/504 are the governance ladder's
// deterministic MO/TO verdicts (every replica would answer the same), and
// any other 5xx means the request already reached a sim worker, so
// re-sending it could only burn a second strong simulation.
func canFailover(status int) bool {
	return status == http.StatusBadGateway || status == http.StatusServiceUnavailable
}

func (r *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	r.reqErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]any{"code": code, "message": msg, "status": status},
	})
}

// Handler returns the router's HTTP handler (also useful under httptest).
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sample", r.handleSample)
	mux.HandleFunc("/v1/cluster", r.handleStatus)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/readyz", r.handleReadyz)
	// Read-only fleet endpoints are proxied to any healthy replica.
	mux.HandleFunc("/v1/circuits", r.handleProxy)
	mux.HandleFunc("/v1/stats", r.handleProxy)
	mux.HandleFunc("/v1/slo", r.handleProxy)
	return mux
}

func (r *Router) handleSample(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		r.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	r.reqTotal.Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		r.writeError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return
	}
	key, err := r.keys.Key(body)
	if err != nil {
		r.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	tid, traceparent := outboundTraceparent(req.Header.Get("traceparent"))
	w.Header().Set("X-Weaksim-Trace-Id", tid.String())

	cands := r.candidates(key)
	if len(cands) == 0 {
		r.writeError(w, http.StatusServiceUnavailable, "no_backends", "no backends configured")
		return
	}
	r.prewarm(key, cands[0])

	var lastStatus int
	var lastErr error
	for attempt, b := range cands {
		if attempt > 0 {
			r.failovers.Inc()
		}
		resp, err := r.forward(req.Context(), b, req.URL.RawQuery, body, traceparent)
		if err != nil {
			// Transport-level failure: the backend never answered. Count it
			// toward ejection (traffic ejects a dead replica faster than the
			// probe cadence) and fail over.
			if b.noteFailure(r.cfg.FailThreshold, r.cfg.ProbeInterval, r.cfg.MaxBackoff, time.Now()) {
				r.probeEject.Inc()
				r.mu.Lock()
				r.refreshHealthyGaugeLocked()
				r.mu.Unlock()
			}
			lastErr = err
			continue
		}
		if canFailover(resp.StatusCode) && attempt < len(cands)-1 {
			lastStatus = resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		if resp.StatusCode == http.StatusOK {
			r.recordPlacement(key, b)
		}
		relay(w, resp, b.name)
		return
	}
	if lastErr != nil {
		r.writeError(w, http.StatusBadGateway, "no_backend_available",
			fmt.Sprintf("all %d candidates failed; last: %v", len(cands), lastErr))
		return
	}
	r.writeError(w, http.StatusBadGateway, "no_backend_available",
		fmt.Sprintf("all %d candidates refused; last status %d", len(cands), lastStatus))
}

// forward sends one attempt of the sample request to backend b. The
// fault.ClusterConnect hook models a backend connect failure ahead of the
// real dial, so the chaos suite can exercise ejection and failover
// deterministically.
func (r *Router) forward(ctx context.Context, b *backend, rawQuery string, body []byte, traceparent string) (*http.Response, error) {
	if err := fault.Hit(fault.ClusterConnect); err != nil {
		return nil, err
	}
	url := b.name + "/v1/sample"
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	b.requests.Inc()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	// Any HTTP answer means the backend is alive, whatever the status.
	if b.noteSuccess() {
		r.probeRestore.Inc()
	}
	return resp, nil
}

// relay copies a backend response to the client, tagging which replica
// answered.
func relay(w http.ResponseWriter, resp *http.Response, backendName string) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "X-Weaksim-Trace-Id", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Weaksim-Backend", backendName)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// prewarm ships the snapshot for key to target when the ring has reassigned
// the key away from a still-warm holder — the "replica joined / primary
// changed" path. Synchronous: the point is that the forwarded request finds
// the target warm. A failed ship degrades to the target re-simulating,
// never to a failed request.
func (r *Router) prewarm(key string, target *backend) {
	r.mu.Lock()
	holderName, ok := r.placement[key]
	holder := r.backends[holderName]
	already := r.shipped[key][target.name]
	r.mu.Unlock()
	if !ok || holder == nil || holderName == target.name || already || !holder.isHealthy() {
		return
	}
	r.ship(key, holder, target)
}

// recordPlacement remembers that b answered key with 200 and replicates the
// snapshot to the remaining ring candidates in the background, so the next
// failover target is warm before it is ever needed.
func (r *Router) recordPlacement(key string, b *backend) {
	r.mu.Lock()
	r.placement[key] = b.name
	if r.shipped[key] == nil {
		r.shipped[key] = make(map[string]bool)
	}
	r.shipped[key][b.name] = true
	var targets []*backend
	if !r.draining {
		for _, n := range r.ring.lookup(key, r.cfg.ReplicaCount+1) {
			if t := r.backends[n]; t != nil && n != b.name && !r.shipped[key][n] && t.isHealthy() {
				targets = append(targets, t)
			}
		}
	}
	r.mu.Unlock()
	for _, t := range targets {
		r.shipWG.Add(1)
		go func(t *backend) {
			defer r.shipWG.Done()
			r.ship(key, b, t)
		}(t)
	}
}

// ship copies one snapshot frame from a warm replica to a target via the
// wire endpoints. The frame is the snapstore file format (versioned dd
// image + CRC-64 trailer), so the target runs the same integrity ladder a
// disk load would; the fault.ClusterSnapFetch hook can corrupt the frame in
// transit to prove that ladder holds. Every failure is counted and dropped
// — the target simply re-simulates on demand.
func (r *Router) ship(key string, from, to *backend) {
	r.shipAttempts.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.RequestTimeout)
	defer cancel()
	getReq, err := http.NewRequestWithContext(ctx, http.MethodGet, from.name+"/v1/snapshot/"+key, nil)
	if err != nil {
		r.shipFailed.Inc()
		return
	}
	resp, err := r.client.Do(getReq)
	if err != nil {
		r.shipFailed.Inc()
		return
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		r.shipFailed.Inc()
		return
	}
	frame, err = fault.Mangle(fault.ClusterSnapFetch, frame)
	if err != nil {
		r.shipFailed.Inc()
		return
	}
	putReq, err := http.NewRequestWithContext(ctx, http.MethodPut, to.name+"/v1/snapshot/"+key, bytes.NewReader(frame))
	if err != nil {
		r.shipFailed.Inc()
		return
	}
	putReq.Header.Set("Content-Type", "application/octet-stream")
	putResp, err := r.client.Do(putReq)
	if err != nil {
		r.shipFailed.Inc()
		return
	}
	io.Copy(io.Discard, putResp.Body)
	putResp.Body.Close()
	switch putResp.StatusCode {
	case http.StatusNoContent:
		r.shipInstalled.Inc()
		r.mu.Lock()
		if r.shipped[key] == nil {
			r.shipped[key] = make(map[string]bool)
		}
		r.shipped[key][to.name] = true
		r.mu.Unlock()
	case http.StatusConflict:
		// Version mismatch is deterministic: that target can never install
		// this frame, so mark it "handled" and let it re-simulate instead of
		// re-shipping on every request.
		r.shipFailed.Inc()
		r.mu.Lock()
		if r.shipped[key] == nil {
			r.shipped[key] = make(map[string]bool)
		}
		r.shipped[key][to.name] = true
		r.mu.Unlock()
	default:
		r.shipFailed.Inc()
	}
}

// handleProxy forwards read-only fleet endpoints (/v1/circuits, /v1/stats,
// /v1/slo) to the first healthy replica.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	var names []string
	for n, b := range r.backends {
		if b.isHealthy() {
			names = append(names, n)
		}
	}
	r.mu.Unlock()
	sort.Strings(names)
	_, traceparent := outboundTraceparent(req.Header.Get("traceparent"))
	for _, n := range names {
		out, err := http.NewRequestWithContext(req.Context(), http.MethodGet, n+req.URL.Path, nil)
		if err != nil {
			continue
		}
		out.Header.Set("traceparent", traceparent)
		resp, err := r.client.Do(out)
		if err != nil {
			continue
		}
		relay(w, resp, n)
		return
	}
	r.writeError(w, http.StatusServiceUnavailable, "no_backends", "no healthy backend")
}

// backendStatus is one row of the /v1/cluster report.
type backendStatus struct {
	Name         string `json:"name"`
	Healthy      bool   `json:"healthy"`
	ConsecFails  int    `json:"consec_fails"`
	BackoffMS    int64  `json:"backoff_ms"`
	Requests     uint64 `json:"requests_total"`
	RingPermille int64  `json:"ring_permille"`
	// Walk is the core.WalkVersion the backend's /readyz last reported, 0
	// before the first successful probe.
	Walk int `json:"walk"`
}

// clusterStatus is the GET /v1/cluster body: the routing brain's view of
// the fleet.
type clusterStatus struct {
	Backends      []backendStatus `json:"backends"`
	RingVersion   uint64          `json:"ring_version"`
	ReplicaCount  int             `json:"replica_count"`
	Placements    int             `json:"placements"`
	Failovers     uint64          `json:"failovers_total"`
	ShipAttempts  uint64          `json:"ship_attempts_total"`
	ShipInstalled uint64          `json:"ship_installed_total"`
	ShipFailures  uint64          `json:"ship_failures_total"`
}

func (r *Router) statusNow() clusterStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	own := r.ring.ownership()
	st := clusterStatus{
		RingVersion:   r.ringVersion,
		ReplicaCount:  r.cfg.ReplicaCount,
		Placements:    len(r.placement),
		Failovers:     r.failovers.Value(),
		ShipAttempts:  r.shipAttempts.Value(),
		ShipInstalled: r.shipInstalled.Value(),
		ShipFailures:  r.shipFailed.Value(),
	}
	names := make([]string, 0, len(r.backends))
	for n := range r.backends {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := r.backends[n]
		healthy, fails, backoff := b.snapshotState()
		st.Backends = append(st.Backends, backendStatus{
			Name:         n,
			Healthy:      healthy,
			ConsecFails:  fails,
			BackoffMS:    backoff.Milliseconds(),
			Requests:     b.requests.Value(),
			RingPermille: int64(own[n] * 1000),
			Walk:         b.walkVersion(),
		})
	}
	return st
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		r.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(r.statusNow())
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "role": "router"})
}

// handleReadyz is ready while at least one backend is routable — a router
// with a fully dark fleet should be pulled by its own load balancer.
func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	draining := r.draining
	healthy := 0
	for _, b := range r.backends {
		if b.isHealthy() {
			healthy++
		}
	}
	r.mu.Unlock()
	if draining || healthy == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "unavailable", "healthy_backends": healthy})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "ready", "healthy_backends": healthy})
}
