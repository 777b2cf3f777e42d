package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"weaksim/internal/circuit/qasm"
	"weaksim/internal/dd"
	"weaksim/internal/job"
	"weaksim/internal/obs"
)

const ghzQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
`

// sampleResult decodes a /v1/sample response, its counts read back into the
// map[string]int the wire object encodes.
type sampleResult struct {
	sampleResponse
	Counts map[string]int `json:"counts"`
}

// jobResult decodes a /v1/jobs/{id}/result response the same way.
type jobResult struct {
	jobResultResponse
	Counts map[string]int `json:"counts"`
}

// startServer boots a daemon on an ephemeral port and tears it down with the
// test. The returned base URL has no trailing slash.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv := New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, "http://" + srv.Addr()
}

// post sends a JSON body to /v1/sample and decodes the response into out.
func post(t *testing.T, base string, body any, out any) (int, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/sample", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode
}

// occupyWorker parks one pool worker on a blocking job and returns its
// release function. Submits retry briefly: with an unbuffered queue a submit
// can only land once the worker goroutine has reached its receive.
func occupyWorker(t *testing.T, p *simPool) (release func()) {
	t.Helper()
	block := make(chan struct{})
	started := make(chan struct{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := p.submit(func() {
			close(started)
			<-block
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not occupy worker: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	<-started
	return func() { close(block) }
}

// TestZeroConfigIsL2Phase: a zero Config simulates and keys under the
// library's default scheme, NormL2Phase, with no Norm field set.
func TestZeroConfigIsL2Phase(t *testing.T) {
	_, base := startServer(t, Config{})
	var resp sampleResult
	if status, _ := post(t, base, map[string]any{"qasm": ghzQASM, "shots": 8}, &resp); status != http.StatusOK {
		t.Fatalf("sample: status %d", status)
	}
	circ, err := qasm.Parse(ghzQASM, "request")
	if err != nil {
		t.Fatal(err)
	}
	if want := CircuitKey(circ, dd.NormL2Phase, false); resp.CircuitKey != want {
		t.Fatalf("zero-config key %s, want the NormL2Phase key %s", resp.CircuitKey, want)
	}
}

// TestServeParallelSingleFlight is the end-to-end acceptance test: 8
// concurrent clients post the same QASM circuit for 3 rounds. Exactly one
// strong simulation must run (single-flight), rounds after the first must be
// warm cache hits, and the counts for a fixed (seed, shots, workers) must be
// identical across every response at every cache temperature.
func TestServeParallelSingleFlight(t *testing.T) {
	srv, base := startServer(t, Config{MaxSampleWorkers: 4, Metrics: obs.NewRegistry()})
	const (
		clients = 8
		rounds  = 3
		shots   = 4096
	)
	req := map[string]any{"qasm": ghzQASM, "shots": shots, "seed": 7, "workers": 2}

	type result struct {
		round int
		resp  sampleResult
	}
	var mu sync.Mutex
	var results []result

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var resp sampleResult
				status, _ := post(t, base, req, &resp)
				if status != http.StatusOK {
					t.Errorf("round %d: status %d", round, status)
					return
				}
				mu.Lock()
				results = append(results, result{round, resp})
				mu.Unlock()
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	if len(results) != clients*rounds {
		t.Fatalf("got %d responses, want %d", len(results), clients*rounds)
	}
	ref := results[0].resp
	total := 0
	for _, n := range ref.Counts {
		total += n
	}
	if total != shots {
		t.Fatalf("counts sum to %d, want %d", total, shots)
	}
	for bits := range ref.Counts {
		if bits != "000" && bits != "111" {
			t.Fatalf("GHZ sample produced impossible bitstring %q", bits)
		}
	}
	for _, r := range results {
		// Determinism: counts are a pure function of (circuit, seed, shots,
		// workers), independent of cache temperature.
		if !reflect.DeepEqual(r.resp.Counts, ref.Counts) {
			t.Fatalf("round %d counts diverged:\n  got  %v\n  want %v", r.round, r.resp.Counts, ref.Counts)
		}
		if r.resp.CircuitKey != ref.CircuitKey {
			t.Fatalf("circuit key changed across requests")
		}
		if r.resp.Qubits != 3 || r.resp.Seed != 7 || r.resp.Workers != 2 {
			t.Fatalf("echoed parameters wrong: %+v", r.resp)
		}
		// Rounds after the first must be warm hits: the snapshot was resident
		// before the request arrived.
		if r.round > 0 && !r.resp.Cached {
			t.Fatalf("round %d response was not served from cache", r.round)
		}
	}

	// Exactly one strong simulation across all 24 requests.
	var st statsResponse
	if code := getJSON(t, base+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Sims != 1 {
		t.Fatalf("sims_total=%d, want exactly 1 (single-flight)", st.Sims)
	}
	if st.Cache.Entries != 1 {
		t.Fatalf("cache entries=%d, want 1", st.Cache.Entries)
	}
	if st.Requests != clients*rounds+0 {
		// stats itself is GET, not counted in reqTotal (only /v1/sample is).
		t.Fatalf("requests_total=%d, want %d", st.Requests, clients*rounds)
	}
	if got := srv.Metrics().Counter("serve_sims_total").Value(); got != 1 {
		t.Fatalf("registry sims_total=%d, want 1", got)
	}
}

// TestServeErrorsCountSampleAnswersOnly: serve_errors_total counts
// /v1/sample requests answered with an error status, as its help text says,
// so a rejected job submit, an unknown job and a malformed snapshot key
// leave it alone, a bad /v1/sample raises it by one, and /v1/stats never
// reports more errors than requests.
func TestServeErrorsCountSampleAnswersOnly(t *testing.T) {
	srv, base := startServer(t, Config{Metrics: obs.NewRegistry()})
	errs := srv.Metrics().Counter("serve_errors_total")

	if code, _ := postJSON(t, base, "/v1/jobs", map[string]any{"shots": 100}, nil); code != http.StatusBadRequest {
		t.Fatalf("job submit without a circuit: status %d, want 400", code)
	}
	if code := getJSON(t, base+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, base+snapshotPathPrefix+"bad.key", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed snapshot key: status %d, want 400", code)
	}
	if got := errs.Value(); got != 0 {
		t.Fatalf("serve_errors_total = %d after job and snapshot errors, want 0", got)
	}

	if code, _ := post(t, base, map[string]any{"qasm": "not qasm"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad sample: status %d, want 400", code)
	}
	if got := errs.Value(); got != 1 {
		t.Fatalf("serve_errors_total = %d after one bad /v1/sample, want 1", got)
	}
	var st statsResponse
	if code := getJSON(t, base+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Requests != 1 || st.Errors != 1 {
		t.Fatalf("stats requests_total %d errors_total %d, want 1 and 1", st.Requests, st.Errors)
	}
}

// TestServeMemoryOutBudget checks the MO leg of the degradation ladder: a
// node-budgeted server answers an over-budget circuit with 507 and a
// structured JSON error body.
func TestServeMemoryOutBudget(t *testing.T) {
	_, base := startServer(t, Config{NodeBudget: 2})
	var eb errorBody
	status, _ := post(t, base, map[string]any{"circuit": "qft_8", "shots": 16}, &eb)
	if status != http.StatusInsufficientStorage {
		t.Fatalf("status=%d, want 507", status)
	}
	if eb.Error.Code != "memory_out" {
		t.Fatalf("error code=%q, want memory_out", eb.Error.Code)
	}
	if eb.Error.Status != http.StatusInsufficientStorage || eb.Error.Message == "" {
		t.Fatalf("malformed error body: %+v", eb)
	}

	// The failure must not poison the cache: a permissive server would
	// succeed, and so must this one after the budget is lifted — but on THIS
	// server the same request keeps failing deterministically.
	status, _ = post(t, base, map[string]any{"circuit": "qft_8", "shots": 16}, &eb)
	if status != http.StatusInsufficientStorage {
		t.Fatalf("second attempt: status=%d, want 507 again", status)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, base := startServer(t, Config{MaxShots: 1000, MaxSampleWorkers: 2, MaxQubits: 4})
	cases := []struct {
		name string
		body string
	}{
		{"invalid json", `{"qasm": `},
		{"unknown field", `{"qasm":"x","frobnicate":1}`},
		{"neither source", `{"shots":10}`},
		{"both sources", `{"qasm":"OPENQASM 2.0;","circuit":"ghz_2"}`},
		{"unknown circuit", `{"circuit":"nope_3"}`},
		{"bad qasm", `{"qasm":"OPENQASM 2.0;\nqreg q[1];\nfrob q[0];"}`},
		{"too wide", `{"circuit":"ghz_8"}`},
		{"negative shots", `{"circuit":"ghz_2","shots":-5}`},
		{"shots over cap", `{"circuit":"ghz_2","shots":100000}`},
		{"workers over cap", `{"circuit":"ghz_2","workers":64}`},
		{"negative timeout", `{"circuit":"ghz_2","timeout_ms":-1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(base+"/v1/sample", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("post: %v", err)
			}
			defer resp.Body.Close()
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
				t.Fatalf("status=%d code=%q, want 400/bad_request (%s)", resp.StatusCode, eb.Error.Code, eb.Error.Message)
			}
		})
	}

	// Wrong method on /v1/sample.
	resp, err := http.Get(base + "/v1/sample")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sample status=%d, want 405", resp.StatusCode)
	}
}

// TestServeQueueFullReturns429 saturates a 1-worker, zero-depth admission
// queue and checks the 429 + Retry-After contract.
func TestServeQueueFullReturns429(t *testing.T) {
	srv, base := startServer(t, Config{SimWorkers: 1, QueueDepth: -1})
	release := occupyWorker(t, srv.pool)
	defer release()

	var eb errorBody
	status, hdr := post(t, base, map[string]any{"qasm": ghzQASM, "shots": 4}, &eb)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status=%d, want 429", status)
	}
	if eb.Error.Code != "queue_full" || eb.Error.RetryAfterMS <= 0 {
		t.Fatalf("error=%+v, want queue_full with retry_after_ms", eb.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("missing Retry-After header")
	}
	var st statsResponse
	getJSON(t, base+"/v1/stats", &st)
	if st.QueueRejected == 0 {
		t.Fatalf("queue_rejected_total not incremented")
	}
}

// TestServeTimeoutReturns504 queues behind a stuck worker with a short
// timeout_ms and expects the TO leg of the ladder.
func TestServeTimeoutReturns504(t *testing.T) {
	srv, base := startServer(t, Config{SimWorkers: 1, QueueDepth: 4})
	release := occupyWorker(t, srv.pool)
	defer release()

	var eb errorBody
	status, _ := post(t, base, map[string]any{"qasm": ghzQASM, "shots": 4, "timeout_ms": 50}, &eb)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status=%d, want 504", status)
	}
	if eb.Error.Code != "timeout" {
		t.Fatalf("error code=%q, want timeout", eb.Error.Code)
	}
}

// TestServeWorkersShardDeterministically: counts are a pure function of
// (circuit, seed, shots). A 200,000-shot batch spans four chunks, so the
// worker pool really splits it, yet /v1/sample answers identically at 1, 2
// and 4 workers, and a /v1/jobs job at the default chunk size draws the
// same counts.
func TestServeWorkersShardDeterministically(t *testing.T) {
	_, base := startServer(t, Config{MaxSampleWorkers: 4})
	const circuit, shots, seed = "supremacy_3x3_10", 200_000, 11
	sample := func(workers int) map[string]int {
		var resp sampleResult
		status, _ := post(t, base, map[string]any{
			"circuit": circuit, "shots": shots, "seed": seed, "workers": workers}, &resp)
		if status != http.StatusOK {
			t.Fatalf("workers=%d status=%d", workers, status)
		}
		return resp.Counts
	}
	want := sample(1)
	sum := 0
	for _, n := range want {
		sum += n
	}
	if sum != shots {
		t.Fatalf("counts sum to %d, want %d", sum, shots)
	}
	for _, workers := range []int{1, 2, 4} {
		if got := sample(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: counts differ from workers=1", workers)
		}
	}

	var st job.Status
	if code, _ := postJSON(t, base, "/v1/jobs", map[string]any{
		"circuit": circuit, "shots": shots, "seed": seed}, &st); code != http.StatusAccepted {
		t.Fatalf("job submit status %d", code)
	}
	if st.ChunksTotal < 3 {
		t.Fatalf("job split into %d chunks, want at least 3", st.ChunksTotal)
	}
	waitJob(t, base, st.ID, func(s job.Status) bool { return s.State == job.StateCompleted })
	var res jobResult
	if code := getJSON(t, base+"/v1/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("job result status %d", code)
	}
	if !reflect.DeepEqual(res.Counts, want) {
		t.Errorf("/v1/jobs counts differ from /v1/sample for the same (circuit, seed, shots)")
	}
}

func TestServeCircuitsAndHealth(t *testing.T) {
	_, base := startServer(t, Config{})
	var circuits map[string][]string
	if code := getJSON(t, base+"/v1/circuits", &circuits); code != http.StatusOK {
		t.Fatalf("circuits status %d", code)
	}
	if len(circuits["table1"]) == 0 {
		t.Fatalf("no named circuits listed")
	}
	found := false
	for _, name := range circuits["table1"] {
		if name == "qft_16" {
			found = true
		}
	}
	if !found {
		t.Fatalf("qft_16 missing from %v", circuits["table1"])
	}
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz code=%d status=%q", code, health.Status)
	}
}

// TestServeEvictionUnderPressure gives the LRU room for roughly one GHZ
// snapshot and confirms distinct circuits evict each other while the daemon
// keeps answering correctly.
func TestServeEvictionUnderPressure(t *testing.T) {
	_, base := startServer(t, Config{CacheBytes: 1})
	for i := 2; i <= 4; i++ {
		var resp sampleResult
		status, _ := post(t, base, map[string]any{"circuit": fmt.Sprintf("ghz_%d", i), "shots": 8}, &resp)
		if status != http.StatusOK {
			t.Fatalf("ghz_%d status=%d", i, status)
		}
		if resp.Qubits != i {
			t.Fatalf("ghz_%d reported %d qubits", i, resp.Qubits)
		}
	}
	var st statsResponse
	getJSON(t, base+"/v1/stats", &st)
	if st.Cache.Entries != 1 {
		t.Fatalf("cache entries=%d under 1-byte budget, want 1 (oversized admission)", st.Cache.Entries)
	}
	if st.Cache.Evictions < 2 {
		t.Fatalf("evictions=%d, want >= 2", st.Cache.Evictions)
	}
}

// TestServeGracefulDrain shuts the server down mid-life and verifies the
// listener closes and Shutdown returns cleanly.
func TestServeGracefulDrain(t *testing.T) {
	srv, base := startServer(t, Config{})
	var resp sampleResult
	if status, _ := post(t, base, map[string]any{"circuit": "ghz_2", "shots": 4}, &resp); status != http.StatusOK {
		t.Fatalf("warmup status=%d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Post(base+"/v1/sample", "application/json", strings.NewReader(`{}`)); err == nil {
		t.Fatalf("listener still accepting after drain")
	}
	// Idempotent: a second shutdown must not panic or error.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := srv.Shutdown(ctx2); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
