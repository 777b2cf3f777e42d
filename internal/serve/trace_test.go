package serve

// Request-tracing acceptance tests: every response carries a trace ID,
// inbound W3C traceparent headers are adopted, single-flight coalescing
// shares simulation spans without merging trace identities, and the debug=1
// phase breakdown accounts for a cold request's wall time.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"weaksim/internal/algo"
	"weaksim/internal/circuit/qasm"
	"weaksim/internal/core"
	"weaksim/internal/fault"
	"weaksim/internal/job"
	"weaksim/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// postTraced posts a sample request with optional extra headers and returns
// the decoded response plus the response headers.
func postTraced(t *testing.T, base string, body any, hdr map[string]string, out any) (int, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sample?debug=1", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode, resp.Header
}

func TestServeTraceIDOnEveryResponse(t *testing.T) {
	_, base := startServer(t, Config{})

	// Success path.
	var resp sampleResult
	status, hdr := postTraced(t, base, sampleBody(16, 1), nil, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	id := hdr.Get("X-Weaksim-Trace-Id")
	if !traceIDRe.MatchString(id) {
		t.Fatalf("trace header %q is not 32 lowercase hex digits", id)
	}
	if resp.Trace == nil || resp.Trace.TraceID != id {
		t.Fatalf("debug trace body %+v does not echo header %q", resp.Trace, id)
	}

	// Error path: a 400 still carries the header.
	var eb errorBody
	status, hdr = postTraced(t, base, map[string]any{"qasm": "not qasm"}, nil, &eb)
	if status != http.StatusBadRequest {
		t.Fatalf("bad request status %d", status)
	}
	if id := hdr.Get("X-Weaksim-Trace-Id"); !traceIDRe.MatchString(id) {
		t.Fatalf("error response trace header %q", id)
	}

	// GET endpoints carry it too.
	for _, path := range []string{"/v1/stats", "/v1/slo", "/healthz", "/readyz", "/v1/circuits"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		if id := resp.Header.Get("X-Weaksim-Trace-Id"); !traceIDRe.MatchString(id) {
			t.Fatalf("%s trace header %q", path, id)
		}
	}
}

func TestServeTraceparentAdoptedAndRejected(t *testing.T) {
	_, base := startServer(t, Config{})

	const inbound = "4bf92f3577b34da6a3ce929d0e0e4736"
	var resp sampleResult
	_, hdr := postTraced(t, base, sampleBody(16, 1), map[string]string{
		"traceparent": "00-" + inbound + "-00f067aa0ba902b7-01",
	}, &resp)
	if got := hdr.Get("X-Weaksim-Trace-Id"); got != inbound {
		t.Fatalf("inbound traceparent not adopted: got %q want %q", got, inbound)
	}

	// Malformed headers mint fresh IDs instead of propagating garbage.
	for _, bad := range []string{
		"00-" + inbound + "-00f067aa0ba902b7",                     // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"01-" + inbound + "-00f067aa0ba902b7-01",                  // unknown version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
	} {
		_, hdr := postTraced(t, base, sampleBody(16, 1), map[string]string{"traceparent": bad}, nil)
		got := hdr.Get("X-Weaksim-Trace-Id")
		if !traceIDRe.MatchString(got) || got == inbound {
			t.Fatalf("malformed traceparent %q yielded trace %q", bad, got)
		}
	}
}

func TestServeDisableRequestTracesOmitsHeader(t *testing.T) {
	_, base := startServer(t, Config{DisableRequestTraces: true})
	var resp sampleResult
	status, hdr := postTraced(t, base, sampleBody(16, 1), nil, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if id := hdr.Get("X-Weaksim-Trace-Id"); id != "" {
		t.Fatalf("disabled tracing still sent header %q", id)
	}
	if resp.Trace != nil {
		t.Fatalf("disabled tracing still echoed debug trace %+v", resp.Trace)
	}
}

// TestServeTraceParallelCoalesce pins the single-flight trace contract under
// -race: concurrent cold requests for one circuit coalesce onto one strong
// simulation; every waiter keeps its own trace ID, but all of them reference
// the SAME freeze span (identical span ID), with exactly one request — the
// leader — owning it (shared=false).
func TestServeTraceParallelCoalesce(t *testing.T) {
	srv, base := startServer(t, Config{Metrics: obs.NewRegistry(), MaxSampleWorkers: 4})
	// Slow the one simulation down so every client reliably arrives while
	// the flight is still in progress. Process-global plan: no t.Parallel.
	if err := fault.Enable("serve.sim:latency(250ms)@1", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)

	const clients = 8
	type res struct {
		trace string
		resp  sampleResult
	}
	results := make([]res, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp sampleResult
			status, hdr := postTraced(t, base, sampleBody(256, 2), nil, &resp)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d", i, status)
				return
			}
			results[i] = res{trace: hdr.Get("X-Weaksim-Trace-Id"), resp: resp}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if sims := srv.Metrics().Counter("serve_sims_total").Value(); sims != 1 {
		t.Fatalf("%d simulations ran, want 1 (single flight)", sims)
	}

	traces := make(map[string]bool)
	freezeSpan := ""
	owners, leaderTrace := 0, ""
	for i, r := range results {
		if traces[r.trace] {
			t.Fatalf("client %d: duplicate trace ID %s", i, r.trace)
		}
		traces[r.trace] = true
		if r.resp.Trace == nil {
			t.Fatalf("client %d: no debug trace", i)
		}
		var freeze *obs.SpanRecord
		for j := range r.resp.Trace.Spans {
			if sp := &r.resp.Trace.Spans[j]; sp.Phase == obs.PhaseFreeze && sp.Kind == "span" {
				if freeze != nil {
					t.Fatalf("client %d: multiple freeze spans", i)
				}
				freeze = sp
			}
		}
		if freeze == nil {
			t.Fatalf("client %d: no freeze span (did the request miss the flight?)", i)
		}
		if freezeSpan == "" {
			freezeSpan = freeze.SpanID
		} else if freeze.SpanID != freezeSpan {
			t.Fatalf("client %d: freeze span %s, want shared %s", i, freeze.SpanID, freezeSpan)
		}
		if !freeze.Shared {
			owners++
			leaderTrace = r.trace
		} else if freeze.OriginTrace == "" {
			t.Fatalf("client %d: shared freeze span missing origin_trace", i)
		}
	}
	if owners != 1 {
		t.Fatalf("%d requests own the freeze span, want exactly 1 leader", owners)
	}
	for i, r := range results {
		if r.trace == leaderTrace {
			continue
		}
		for _, sp := range r.resp.Trace.Spans {
			if sp.Phase == obs.PhaseFreeze && sp.OriginTrace != leaderTrace {
				t.Fatalf("client %d: origin_trace %s, want leader %s", i, sp.OriginTrace, leaderTrace)
			}
		}
	}
}

// TestServeColdRequestPhaseSumMatchesWall is the acceptance criterion for
// the breakdown's accounting: on a cold request the sequential phases —
// parse, queue, build, apply, freeze, sample — tile the request, so their
// sum must land within 5% of the client-observed wall time.
func TestServeColdRequestPhaseSumMatchesWall(t *testing.T) {
	_, base := startServer(t, Config{})

	// Warm the HTTP connection (and nothing else) so the measured request
	// pays no dial/TLS setup: a different circuit key keeps the target cold.
	var warm sampleResult
	if status, _ := postTraced(t, base, map[string]any{"circuit": "ghz_3", "shots": 16}, nil, &warm); status != http.StatusOK {
		t.Fatalf("warmup status %d", status)
	}

	// Every server phase is traced, encoding the counts included; what no
	// phase can hold is the client's share of the wall (the HTTP round trip,
	// decoding the body, and marshaling the trace echo itself, about 0.5 ms
	// together) and scheduling delays between phases on a loaded host, a
	// few ms. A strong simulation of some 200 ms makes that share small,
	// and few shots keep the body small: the binomial split draws even 2M
	// shots of a small register in under a millisecond.
	body := map[string]any{"circuit": "supremacy_4x4_10", "shots": 256, "seed": 7, "workers": 1}
	var resp sampleResult
	begin := time.Now()
	status, _ := postTraced(t, base, body, nil, &resp)
	wall := time.Since(begin).Nanoseconds()
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Cached {
		t.Fatal("request was not cold")
	}
	if resp.Trace == nil {
		t.Fatal("no debug trace")
	}
	var sum int64
	for phase, ns := range resp.Trace.PhaseNS {
		if ns < 0 {
			t.Fatalf("phase %s negative duration %d", phase, ns)
		}
		sum += ns
	}
	for _, phase := range []string{obs.PhaseParse, obs.PhaseQueue, obs.PhaseBuild, obs.PhaseApply, obs.PhaseFreeze, obs.PhaseSample} {
		if _, ok := resp.Trace.PhaseNS[phase]; !ok {
			t.Fatalf("cold breakdown missing phase %q: %v", phase, resp.Trace.PhaseNS)
		}
	}
	if sum > wall {
		t.Fatalf("phase sum %dns exceeds wall %dns", sum, wall)
	}
	if float64(sum) < 0.95*float64(wall) {
		t.Fatalf("phase sum %dns accounts for only %.1f%% of wall %dns (want >= 95%%); breakdown %v",
			sum, 100*float64(sum)/float64(wall), wall, resp.Trace.PhaseNS)
	}
}

// TestServeWarmHitPhases: a request whose spelling the memo holds is
// timed as parse (decoding the body), hash (the memo probe), sample and
// encode, with no queue, build, apply or freeze phase, and those phases
// tile the handler's wall time. The handler runs in-process, so the wall
// holds no network round trip, and 2^18 shots of qft_16 make the sample
// and encode phases long next to what no phase holds: opening and
// finishing the trace, and marshaling the trace echo.
func TestServeWarmHitPhases(t *testing.T) {
	srv := New(Config{Metrics: obs.NewRegistry()})
	defer srv.Close()
	h := srv.Handler()
	qft, err := algo.Generate("qft_16")
	if err != nil {
		t.Fatal(err)
	}
	src, err := qasm.Write(qft)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(map[string]any{"qasm": src, "shots": 1 << 18, "seed": 7})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() (sampleResult, int64) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/sample?debug=1", bytes.NewReader(raw))
		begin := time.Now()
		h.ServeHTTP(w, r)
		wall := time.Since(begin).Nanoseconds()
		var resp sampleResult
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp, wall
	}
	cold, _ := serve()
	hit, wall := serve()
	if cold.Cached || !hit.Cached || hit.Trace == nil {
		t.Fatalf("want a cold request, then a traced cached one: cached %v, %v", cold.Cached, hit.Cached)
	}
	if st := srv.cache.stats(); st.SpellingHits != 1 {
		t.Fatalf("spelling hits %d, want the second request answered from the memo", st.SpellingHits)
	}
	for _, p := range []string{obs.PhaseParse, obs.PhaseHash, obs.PhaseSample, obs.PhaseEncode} {
		if _, ok := hit.Trace.PhaseNS[p]; !ok {
			t.Errorf("memo hit breakdown missing phase %q: %v", p, hit.Trace.PhaseNS)
		}
	}
	for _, p := range []string{obs.PhaseQueue, obs.PhaseBuild, obs.PhaseApply, obs.PhaseFreeze} {
		if ns, ok := hit.Trace.PhaseNS[p]; ok {
			t.Errorf("memo hit breakdown has a %s phase (%dns): %v", p, ns, hit.Trace.PhaseNS)
		}
	}
	parses := 0
	for _, sp := range hit.Trace.Spans {
		if sp.Phase == obs.PhaseParse {
			parses++
		}
	}
	if parses != 1 {
		t.Errorf("memo hit has %d parse spans, want the decode's alone", parses)
	}
	var sum int64
	for _, ns := range hit.Trace.PhaseNS {
		sum += ns
	}
	if sum > wall || float64(sum) < 0.9*float64(wall) {
		t.Fatalf("phase sum %dns is %.1f%% of wall %dns (want 90-100%%); breakdown %v",
			sum, 100*float64(sum)/float64(wall), wall, hit.Trace.PhaseNS)
	}
	t.Logf("memo hit: phases %v sum to %.1f%% of %dns", hit.Trace.PhaseNS, 100*float64(sum)/float64(wall), wall)
}

func TestServeStatsEndpointPercentiles(t *testing.T) {
	_, base := startServer(t, Config{Metrics: obs.NewRegistry()})
	for i := 0; i < 5; i++ {
		var resp sampleResult
		if status, _ := postTraced(t, base, sampleBody(64, 1), nil, &resp); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	var stats statsResponse
	if status := getJSON(t, base+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	ep, ok := stats.Endpoints["/v1/sample"]
	if !ok {
		t.Fatalf("no /v1/sample endpoint stats: %+v", stats.Endpoints)
	}
	if ep.Requests != 5 {
		t.Fatalf("endpoint requests %d, want 5", ep.Requests)
	}
	if ep.P50MS <= 0 || ep.P95MS < ep.P50MS || ep.P99MS < ep.P95MS {
		t.Fatalf("percentiles not monotone positive: p50=%v p95=%v p99=%v", ep.P50MS, ep.P95MS, ep.P99MS)
	}
}

func TestServeFlightEndpointStreamsJSONL(t *testing.T) {
	_, base := startServer(t, Config{})
	var resp sampleResult
	if status, _ := postTraced(t, base, sampleBody(16, 1), nil, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	httpResp, err := http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if ct := httpResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	dec := json.NewDecoder(httpResp.Body)
	records, sawServe := 0, false
	for dec.More() {
		var rec obs.SpanRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		if rec.Phase == obs.PhaseServe && rec.Name == "/v1/sample" {
			sawServe = true
		}
		records++
	}
	if records == 0 || !sawServe {
		t.Fatalf("flight dump has %d records, sawServe=%v", records, sawServe)
	}
}

// TestServePhaseTimedOnce: each phase of a cold request is timed by one
// span, so the phase_<p>_ns counter moves by exactly the duration the
// debug=1 breakdown reports for it — both come from the same clock reading.
// The same request again, under an inbound traceparent, is a cache hit that
// adopts the trace ID and times a sample phase but no build, apply or
// freeze: the warm path runs no simulation.
func TestServePhaseTimedOnce(t *testing.T) {
	srv, base := startServer(t, Config{Metrics: obs.NewRegistry()})
	phases := []string{obs.PhaseParse, obs.PhaseQueue, obs.PhaseBuild, obs.PhaseApply, obs.PhaseFreeze, obs.PhaseSample}
	counter := func(p string) uint64 { return srv.Metrics().Counter("phase_" + p + "_ns").Value() }
	before := make(map[string]uint64, len(phases))
	for _, p := range phases {
		before[p] = counter(p)
	}
	var resp sampleResult
	body := map[string]any{"circuit": "qft_8", "shots": 4096, "seed": 7}
	if status, _ := postTraced(t, base, body, nil, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Cached || resp.Trace == nil {
		t.Fatalf("want a cold traced request, got cached=%v trace=%v", resp.Cached, resp.Trace)
	}
	for _, p := range phases {
		got, ok := resp.Trace.PhaseNS[p]
		if !ok {
			t.Fatalf("breakdown missing phase %q: %v", p, resp.Trace.PhaseNS)
		}
		if delta := counter(p) - before[p]; delta != uint64(got) {
			t.Errorf("phase %s: counter moved %dns, trace reports %dns", p, delta, got)
		}
	}
	if resp.SampleNS != resp.Trace.PhaseNS[obs.PhaseSample] {
		t.Errorf("sample_ns %d differs from the sample span %d", resp.SampleNS, resp.Trace.PhaseNS[obs.PhaseSample])
	}
	if resp.Trace.PhaseNS[obs.PhaseSample] <= 0 {
		t.Errorf("cold breakdown has a zero-length sample phase: %v", resp.Trace.PhaseNS)
	}

	for _, p := range phases {
		before[p] = counter(p)
	}
	const inbound = "0af7651916cd43dd8448eb211c80319c"
	var warm sampleResult
	status, hdr := postTraced(t, base, body, map[string]string{
		"traceparent": "00-" + inbound + "-b7ad6b7169203331-01",
	}, &warm)
	if status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if got := hdr.Get("X-Weaksim-Trace-Id"); got != inbound {
		t.Fatalf("warm request did not adopt the inbound traceparent: got %q want %q", got, inbound)
	}
	if !warm.Cached || warm.Trace == nil {
		t.Fatalf("want a cached traced request, got cached=%v trace=%v", warm.Cached, warm.Trace)
	}
	if !reflect.DeepEqual(warm.Counts, resp.Counts) {
		t.Fatal("warm counts differ from the cold request's")
	}
	for _, p := range []string{obs.PhaseBuild, obs.PhaseApply, obs.PhaseFreeze} {
		if ns, ok := warm.Trace.PhaseNS[p]; ok {
			t.Errorf("warm breakdown has a %s phase (%dns): %v", p, ns, warm.Trace.PhaseNS)
		}
		if delta := counter(p) - before[p]; delta != 0 {
			t.Errorf("warm request moved phase_%s_ns by %dns", p, delta)
		}
	}
	if warm.Trace.PhaseNS[obs.PhaseSample] <= 0 {
		t.Errorf("warm breakdown has a zero-length sample phase: %v", warm.Trace.PhaseNS)
	}
}

// TestServeJobPhasesFromTrace: a job's phase breakdown is read from its
// trace, with exactly the chunk phases as keys, and after completion the
// flight ring holds the job's spans under its trace ID.
func TestServeJobPhasesFromTrace(t *testing.T) {
	_, base := startServer(t, Config{JobsDir: t.TempDir()})
	var st job.Status
	if code, _ := postJSON(t, base, "/v1/jobs", map[string]any{
		"circuit": "qft_8", "shots": 3 * core.ChunkShots, "seed": 7,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, base, st.ID, func(s job.Status) bool { return s.State == job.StateCompleted })
	want := map[string]bool{obs.PhaseSnapshot: true, obs.PhaseSample: true, obs.PhaseWAL: true}
	if len(done.PhaseNS) != len(want) {
		t.Fatalf("job phase keys %v, want exactly snapshot/sample/wal", done.PhaseNS)
	}
	for p, ns := range done.PhaseNS {
		if !want[p] || ns <= 0 {
			t.Fatalf("job phase %q = %d in %v", p, ns, done.PhaseNS)
		}
	}

	resp, err := http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := map[string]int{}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var rec obs.SpanRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.TraceID == done.TraceID && rec.Kind == "span" {
			seen[rec.Phase]++
			if rec.Phase == obs.PhaseServe && rec.Name != "job" {
				t.Errorf("job root span named %q, want job", rec.Name)
			}
		}
	}
	// Three chunks: a snapshot and a sample span each, two wal spans each
	// (encode, then append under the lock), and the root span.
	if seen[obs.PhaseSnapshot] != 3 || seen[obs.PhaseSample] != 3 || seen[obs.PhaseWAL] != 6 || seen[obs.PhaseServe] != 1 {
		t.Fatalf("flight ring holds job spans %v under trace %s", seen, done.TraceID)
	}
}
