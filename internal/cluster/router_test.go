package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"weaksim/internal/dd"
	"weaksim/internal/serve"
)

// ghzQASMN renders an n-qubit GHZ circuit — a family of cheap, distinct
// circuits for routing tests.
func ghzQASMN(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\nh q[0];\n", n)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "cx q[0],q[%d];\n", i)
	}
	return b.String()
}

func sampleBody(t *testing.T, n int) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"qasm": ghzQASMN(n), "shots": 16, "seed": uint64(3)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// circuitKeyed returns a request body (and its key) whose ring primary
// among names is owner — so failover tests control which backend is hit
// first instead of depending on hash luck.
func circuitKeyed(t *testing.T, names []string, owner string) []byte {
	t.Helper()
	r := buildRing(names)
	for n := 2; n < 40; n++ {
		body := sampleBody(t, n)
		key, err := serve.NewKeyMemo(0, 0).Key(body)
		if err != nil {
			t.Fatal(err)
		}
		if r.lookup(key, 1)[0] == owner {
			return body
		}
	}
	t.Fatalf("no GHZ circuit in [2,40) qubits routes to %s", owner)
	return nil
}

// fakeBackend is a counting stand-in replica: it answers /v1/sample with a
// fixed status and /readyz with 200.
type fakeBackend struct {
	srv     *httptest.Server
	hits    atomic.Int64
	status  atomic.Int64
	lastTP  atomic.Value // last traceparent header seen
	payload string
}

func newFakeBackend(status int) *fakeBackend {
	f := &fakeBackend{payload: `{"counts":{"0":16},"cached":false}`}
	f.status.Store(int64(status))
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			w.WriteHeader(http.StatusOK)
		case "/v1/sample":
			f.hits.Add(1)
			f.lastTP.Store(r.Header.Get("traceparent"))
			st := int(f.status.Load())
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(st)
			if st == http.StatusOK {
				fmt.Fprint(w, f.payload)
			} else {
				fmt.Fprintf(w, `{"error":{"code":"test","status":%d}}`, st)
			}
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	return f
}

func startRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func postRouter(t *testing.T, r *Router, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post("http://"+r.Addr()+"/v1/sample", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouterRoutesConsistently: the same circuit always lands on the same
// backend; the fleet as a whole sees every request exactly once.
func TestRouterRoutesConsistently(t *testing.T) {
	a, b := newFakeBackend(http.StatusOK), newFakeBackend(http.StatusOK)
	defer a.srv.Close()
	defer b.srv.Close()
	r := startRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})

	body := sampleBody(t, 5)
	var backendHeader string
	for i := 0; i < 6; i++ {
		resp := postRouter(t, r, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		got := resp.Header.Get("X-Weaksim-Backend")
		resp.Body.Close()
		if backendHeader == "" {
			backendHeader = got
		} else if got != backendHeader {
			t.Fatalf("request %d routed to %s, earlier ones to %s", i, got, backendHeader)
		}
	}
	if total := a.hits.Load() + b.hits.Load(); total != 6 {
		t.Fatalf("fleet saw %d requests, want 6", total)
	}
	if a.hits.Load() != 0 && b.hits.Load() != 0 {
		t.Fatalf("one circuit split across backends: a=%d b=%d", a.hits.Load(), b.hits.Load())
	}
}

// TestRouterNoFailoverOn500: a 500 means the request reached a sim worker on
// the replica — the router must relay it, not re-send the expensive work to
// another backend. Both fakes answer 500, so wherever the primary lands,
// any failover would show up as a second hit.
func TestRouterNoFailoverOn500(t *testing.T) {
	a, b := newFakeBackend(http.StatusInternalServerError), newFakeBackend(http.StatusInternalServerError)
	defer a.srv.Close()
	defer b.srv.Close()
	r := startRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})

	resp := postRouter(t, r, sampleBody(t, 4))
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want the backend's 500 relayed", resp.StatusCode)
	}
	if total := a.hits.Load() + b.hits.Load(); total != 1 {
		t.Fatalf("request was sent %d times, want exactly 1 (no failover on 500)", total)
	}
	if fo := r.Metrics().Counter("cluster_failovers_total").Value(); fo != 0 {
		t.Fatalf("failovers_total = %d, want 0", fo)
	}
}

// TestRouterGovernanceNeverFailsOver: 507 (MO) and 504 (TO) are
// deterministic verdicts about the circuit; re-sending them to another
// replica would burn a second strong simulation to learn the same answer.
func TestRouterGovernanceNeverFailsOver(t *testing.T) {
	for _, status := range []int{http.StatusInsufficientStorage, http.StatusGatewayTimeout} {
		a, b := newFakeBackend(status), newFakeBackend(status)
		r := startRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
		resp := postRouter(t, r, sampleBody(t, 4))
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("status %d relayed as %d", status, resp.StatusCode)
		}
		if total := a.hits.Load() + b.hits.Load(); total != 1 {
			t.Errorf("status %d: request sent %d times, want 1", status, total)
		}
		a.srv.Close()
		b.srv.Close()
	}
}

// TestRouterFailsOverOn503: draining/shedding replicas refused the request
// before doing any work, so the next ring candidate gets its chance.
func TestRouterFailsOverOn503(t *testing.T) {
	a, b := newFakeBackend(http.StatusOK), newFakeBackend(http.StatusOK)
	defer a.srv.Close()
	defer b.srv.Close()
	names := []string{normalizeBackend(a.srv.URL), normalizeBackend(b.srv.URL)}
	body := circuitKeyed(t, names, names[0]) // primary = a
	a.status.Store(http.StatusServiceUnavailable)

	r := startRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
	resp := postRouter(t, r, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the failover candidate", resp.StatusCode)
	}
	if a.hits.Load() != 1 || b.hits.Load() != 1 {
		t.Fatalf("hits a=%d b=%d, want 1 and 1 (one refusal, one answer)", a.hits.Load(), b.hits.Load())
	}
	if fo := r.Metrics().Counter("cluster_failovers_total").Value(); fo != 1 {
		t.Fatalf("failovers_total = %d, want 1", fo)
	}
}

// TestRouterFailoverOnConnectErrorAndEjection: a dead backend (connection
// refused) fails over transparently, and the forward failures eject it from
// the ring without waiting for probe ticks.
func TestRouterFailoverOnConnectErrorAndEjection(t *testing.T) {
	live := newFakeBackend(http.StatusOK)
	defer live.srv.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	names := []string{normalizeBackend(deadURL), normalizeBackend(live.srv.URL)}
	body := circuitKeyed(t, names, names[0]) // primary = the dead one
	r := startRouter(t, Config{
		Backends:      []string{deadURL, live.srv.URL},
		ProbeInterval: time.Hour, // prove traffic alone ejects
		FailThreshold: 2,
	})
	for i := 0; i < 2; i++ {
		resp := postRouter(t, r, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via failover", i, resp.StatusCode)
		}
	}
	if fo := r.Metrics().Counter("cluster_failovers_total").Value(); fo != 2 {
		t.Fatalf("failovers_total = %d, want 2", fo)
	}
	st := r.statusNow()
	var deadHealthy bool
	for _, b := range st.Backends {
		if b.Name == names[0] {
			deadHealthy = b.Healthy
		}
	}
	if deadHealthy {
		t.Fatal("dead backend still marked healthy after reaching the failure threshold")
	}
	// Ejected: the next request goes straight to the live backend, no
	// failover hop.
	before := r.Metrics().Counter("cluster_failovers_total").Value()
	resp := postRouter(t, r, body)
	resp.Body.Close()
	if got := r.Metrics().Counter("cluster_failovers_total").Value(); got != before {
		t.Fatalf("ejected backend was still tried first (failovers %d -> %d)", before, got)
	}
}

// TestRouterTraceparentPropagation: the router adopts an inbound trace ID
// and hands the replica a traceparent on the same trace.
func TestRouterTraceparentPropagation(t *testing.T) {
	a := newFakeBackend(http.StatusOK)
	defer a.srv.Close()
	r := startRouter(t, Config{Backends: []string{a.srv.URL}})

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodPost, "http://"+r.Addr()+"/v1/sample", bytes.NewReader(sampleBody(t, 3)))
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Weaksim-Trace-Id"); got != traceID {
		t.Fatalf("router echoed trace %q, want %q", got, traceID)
	}
	tp, _ := a.lastTP.Load().(string)
	if !strings.HasPrefix(tp, "00-"+traceID+"-") {
		t.Fatalf("backend received traceparent %q, want trace %s continued across the hop", tp, traceID)
	}
	if strings.Contains(tp, "00f067aa0ba902b7") {
		t.Fatalf("router forwarded the caller's span ID verbatim: %q", tp)
	}
}

// TestRouterBadRequests: bodies the routing function cannot key are
// rejected at the router, before any backend sees them.
func TestRouterBadRequests(t *testing.T) {
	a := newFakeBackend(http.StatusOK)
	defer a.srv.Close()
	r := startRouter(t, Config{Backends: []string{a.srv.URL}})
	for _, body := range []string{`not json`, `{"shots":4}`, `{"qasm":"bogus"}`} {
		resp := postRouter(t, r, []byte(body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if a.hits.Load() != 0 {
		t.Fatalf("unroutable bodies reached a backend %d times", a.hits.Load())
	}
	resp, err := http.Get("http://" + r.Addr() + "/v1/sample")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sample: status %d, want 405", resp.StatusCode)
	}
}

// TestRouterResolvesSpellingOnce: the router keys a repeated spelling from
// its memo, resolving and hashing it once, and refuses a body with bytes
// after its object, as a replica does, before any backend sees it.
func TestRouterResolvesSpellingOnce(t *testing.T) {
	a := newFakeBackend(http.StatusOK)
	defer a.srv.Close()
	r := startRouter(t, Config{Backends: []string{a.srv.URL}})
	body := sampleBody(t, 5)
	for i := 0; i < 3; i++ {
		resp := postRouter(t, r, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if hits, misses := r.keys.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("three requests of one spelling: %d memo hits, %d resolutions; want 2 and 1", hits, misses)
	}
	for _, bad := range []string{string(body) + " garbage", string(body) + string(body)} {
		resp := postRouter(t, r, []byte(bad))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body with trailing bytes: status %d, want 400", resp.StatusCode)
		}
	}
	if n := a.hits.Load(); n != 3 {
		t.Fatalf("backend saw %d requests, want the 3 valid ones", n)
	}
}

// TestRouterZeroConfigKeysL2Phase: a router's zero Config keys bodies as
// a zero-config replica does, under NormL2Phase.
func TestRouterZeroConfigKeysL2Phase(t *testing.T) {
	r, err := NewRouter(Config{Addr: "127.0.0.1:0", Backends: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	body := sampleBody(t, 5)
	got, err := r.keys.Key(body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.NewKeyMemo(dd.NormL2Phase, 1<<20).Key(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("zero-config router key %s, want the NormL2Phase key %s", got, want)
	}
}

// TestRouterPlacementBounded: recording more circuit keys than
// maxPlacementKeys keeps both per-key maps at the cap, and a ship that
// lands for a forgotten key does not bring it back.
func TestRouterPlacementBounded(t *testing.T) {
	const backend = "http://127.0.0.1:1"
	r, err := NewRouter(Config{Addr: "127.0.0.1:0", Backends: []string{backend}})
	if err != nil {
		t.Fatal(err)
	}
	b := r.backends[backend]
	for i := 0; i < maxPlacementKeys+100; i++ {
		r.recordPlacement(fmt.Sprintf("key-%d", i), b)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.placement) != maxPlacementKeys || len(r.shipped) != maxPlacementKeys {
		t.Fatalf("%d placements, %d shipped keys after %d recorded, want %d each",
			len(r.placement), len(r.shipped), maxPlacementKeys+100, maxPlacementKeys)
	}
	for key := range r.shipped {
		if _, ok := r.placement[key]; !ok {
			t.Fatalf("shipped key %s has no placement", key)
		}
	}
	forgotten := ""
	for i := 0; forgotten == ""; i++ {
		if key := fmt.Sprintf("key-%d", i); r.placement[key] == "" {
			forgotten = key
		}
	}
	r.markShippedLocked(forgotten, backend)
	if len(r.shipped) != maxPlacementKeys {
		t.Fatalf("a ship for forgotten key %s grew shipped to %d keys", forgotten, len(r.shipped))
	}
}

// TestRouterStatusAndProbes: /v1/cluster reports the fleet, and the prober
// ejects a backend that stops answering /readyz, then reinstates it.
func TestRouterStatusAndProbes(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && ready.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer flaky.Close()
	steady := newFakeBackend(http.StatusOK)
	defer steady.srv.Close()

	r := startRouter(t, Config{
		Backends:      []string{flaky.URL, steady.srv.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
		MaxBackoff:    50 * time.Millisecond,
	})
	waitHealthy := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if r.Metrics().Gauge("cluster_backends_healthy").Value() == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("cluster_backends_healthy never reached %d", want)
	}
	waitHealthy(2)
	ready.Store(false)
	waitHealthy(1)
	if ej := r.Metrics().Counter("cluster_probe_ejections_total").Value(); ej == 0 {
		t.Fatal("ejection not counted")
	}
	ready.Store(true)
	waitHealthy(2)
	if re := r.Metrics().Counter("cluster_probe_reinstates_total").Value(); re == 0 {
		t.Fatal("reinstatement not counted")
	}

	resp, err := http.Get("http://" + r.Addr() + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var st clusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Backends) != 2 || st.RingVersion == 0 {
		t.Fatalf("malformed status: %+v", st)
	}
	perMille := int64(0)
	for _, b := range st.Backends {
		perMille += b.RingPermille
	}
	if perMille < 900 || perMille > 1001 {
		t.Fatalf("ring ownership sums to %d permille, want ~1000", perMille)
	}
}

// TestRouterBackendsFileWatch: rewriting the membership file rebuilds the
// ring without a restart.
func TestRouterBackendsFileWatch(t *testing.T) {
	a, b := newFakeBackend(http.StatusOK), newFakeBackend(http.StatusOK)
	defer a.srv.Close()
	defer b.srv.Close()
	path := filepath.Join(t.TempDir(), "backends.txt")
	if err := os.WriteFile(path, []byte("# fleet\n"+a.srv.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := startRouter(t, Config{BackendsFile: path, WatchInterval: 15 * time.Millisecond})
	if got := r.Metrics().Gauge("cluster_backends").Value(); got != 1 {
		t.Fatalf("initial backends = %d, want 1", got)
	}
	if err := os.WriteFile(path, []byte(a.srv.URL+"\n"+b.srv.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.Metrics().Gauge("cluster_backends").Value() == 2 {
			if v := r.Metrics().Gauge("cluster_ring_version").Value(); v < 2 {
				t.Fatalf("ring_version = %d after membership change, want >= 2", v)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("membership file change never picked up")
}

// TestRouterReadyz: ready only while at least one backend is routable.
func TestRouterReadyz(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	r := startRouter(t, Config{
		Backends:      []string{deadURL},
		ProbeInterval: 15 * time.Millisecond,
		FailThreshold: 1,
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + r.Addr() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("/readyz stayed ready with a fully dark fleet")
}
