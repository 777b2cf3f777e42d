package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"weaksim/internal/core"
	"weaksim/internal/job"
)

// postJSON sends a JSON body to an arbitrary path and decodes the response.
func postJSON(t *testing.T, base, path string, body any, out any) (int, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("post %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %s: %v\nbody: %s", path, err, raw)
		}
	}
	return resp.StatusCode, resp.Header
}

func waitJob(t *testing.T, base, id string, pred func(job.Status) bool) job.Status {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var st job.Status
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if pred(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting on job %s", id)
	return job.Status{}
}

func TestJobLifecycleHTTP(t *testing.T) {
	_, base := startServer(t, Config{JobsDir: t.TempDir()})

	var st job.Status
	code, _ := postJSON(t, base, "/v1/jobs", map[string]any{
		"qasm": ghzQASM, "shots": 4*core.ChunkShots + 1000, "seed": 7,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if st.ID == "" || st.ChunksTotal != 5 || st.CircuitKey == "" {
		t.Fatalf("submit status %+v, want ID, 5 chunks, and a circuit key", st)
	}

	done := waitJob(t, base, st.ID, func(s job.Status) bool { return s.State == job.StateCompleted })
	if done.ShotsDone != 4*core.ChunkShots+1000 || done.ChunksDone != 5 {
		t.Errorf("completed with shots=%d chunks=%d, want %d/5", done.ShotsDone, done.ChunksDone, 4*core.ChunkShots+1000)
	}

	var res jobResult
	if code := getJSON(t, base+"/v1/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status %d, want 200", code)
	}
	sum := 0
	for bits, n := range res.Counts {
		if bits != "000" && bits != "111" {
			t.Errorf("GHZ produced unexpected outcome %q", bits)
		}
		sum += n
	}
	if sum != 4*core.ChunkShots+1000 {
		t.Errorf("result counts sum to %d, want %d", sum, 4*core.ChunkShots+1000)
	}

	var list struct {
		Jobs []job.Status `json:"jobs"`
	}
	if code := getJSON(t, base+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Errorf("list status %d with %d jobs, want 200 with 1", code, len(list.Jobs))
	}
}

func TestJobEventsNDJSON(t *testing.T) {
	_, base := startServer(t, Config{})
	var st job.Status
	code, _ := postJSON(t, base, "/v1/jobs", map[string]any{
		"circuit": "ghz_4", "shots": 10 * core.ChunkShots,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type %q, want application/x-ndjson", ct)
	}
	var last job.Event
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON frame %q: %v", sc.Text(), err)
		}
		frames++
	}
	if frames == 0 {
		t.Fatal("no event frames received")
	}
	if !last.Terminal || last.State != job.StateCompleted {
		t.Errorf("final frame %+v, want terminal completed", last)
	}
	if last.ChunksDone != 10 || len(last.Top) == 0 {
		t.Errorf("final frame chunks=%d top=%v, want 10 chunks with top-k", last.ChunksDone, last.Top)
	}
}

func TestJobCancelAndConflict(t *testing.T) {
	_, base := startServer(t, Config{JobsDir: t.TempDir()})
	var st job.Status
	code, _ := postJSON(t, base, "/v1/jobs", map[string]any{
		"circuit": "ghz_3", "shots": 100_000_000,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", resp.StatusCode)
	}
	done := waitJob(t, base, st.ID, func(s job.Status) bool { return s.State.Terminal() })
	if done.State != job.StateCancelled {
		t.Fatalf("state %s after cancel, want cancelled", done.State)
	}

	// A result fetch on a non-completed job is a structured 409.
	var conflict struct {
		Error  errorInfo  `json:"error"`
		Status job.Status `json:"status"`
	}
	if code := getJSON(t, base+"/v1/jobs/"+st.ID+"/result", &conflict); code != http.StatusConflict {
		t.Fatalf("result on cancelled job: status %d, want 409", code)
	}
	if conflict.Error.Code != "not_completed" || conflict.Status.State != job.StateCancelled {
		t.Errorf("conflict body %+v, want not_completed with cancelled status", conflict)
	}
}

func TestJobQuota429(t *testing.T) {
	_, base := startServer(t, Config{JobMaxPerTenant: 1})
	var first job.Status
	code, _ := postJSON(t, base, "/v1/jobs", map[string]any{
		"circuit": "ghz_3", "shots": 100_000_000, "tenant": "acme",
	}, &first)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}

	var body errorBody
	code, hdr := postJSON(t, base, "/v1/jobs", map[string]any{
		"circuit": "ghz_3", "shots": 1000, "tenant": "acme",
	}, &body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status %d, want 429", code)
	}
	if body.Error.Code != "quota_exceeded" || body.Error.RetryAfterMS <= 0 {
		t.Errorf("quota error body %+v, want quota_exceeded with retry hint", body.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 quota response missing Retry-After header")
	}

	// Another tenant is unaffected.
	code, _ = postJSON(t, base, "/v1/jobs", map[string]any{
		"circuit": "ghz_3", "shots": 1000, "tenant": "other",
	}, nil)
	if code != http.StatusAccepted {
		t.Errorf("other-tenant submit status %d, want 202", code)
	}
}

func TestJobNotFound(t *testing.T) {
	_, base := startServer(t, Config{})
	var body errorBody
	if code := getJSON(t, base+"/v1/jobs/jdoesnotexist", &body); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", code)
	}
	if body.Error.Code != "not_found" {
		t.Errorf("error code %q, want not_found", body.Error.Code)
	}
}

func TestJobBadRequests(t *testing.T) {
	_, base := startServer(t, Config{})
	// A job's chunk size is persisted in its spec but is no request field.
	chunkSize, _ := reflect.TypeOf(job.Spec{}).FieldByName("ChunkShots")
	cases := []map[string]any{
		{"shots": 100}, // no circuit
		{"qasm": ghzQASM, "circuit": "ghz_3", "shots": 100}, // both
		{"circuit": "ghz_3"},                                                // no shots
		{"circuit": "ghz_3", "shots": -5},                                   // negative shots
		{"circuit": "ghz_3", "shots": JobMaxShots + 1},                      // over the job cap
		{"circuit": "ghz_3", "shots": 2048, chunkSize.Tag.Get("json"): 512}, // no such field
		{"circuit": "ghz_3", "shots": 100, "priority": "max"},               // bad priority
		{"circuit": "nope_99", "shots": 100},                                // unknown benchmark
	}
	for i, body := range cases {
		var eb errorBody
		if code, _ := postJSON(t, base, "/v1/jobs", body, &eb); code != http.StatusBadRequest || eb.Error.Code != "bad_request" {
			t.Errorf("case %d (%v): status %d code %q, want 400 bad_request", i, body, code, eb.Error.Code)
		}
	}
}

// TestDrainingRetryAfter pins the satellite contract: a draining daemon's
// 503 carries Retry-After guidance exactly like the 429 path does.
func TestDrainingRetryAfter(t *testing.T) {
	srv, _ := startServer(t, Config{})
	srv.draining.Store(true)

	body, _ := json.Marshal(map[string]any{"circuit": "ghz_3", "shots": 100})
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "5" {
		t.Errorf("Retry-After header %q, want \"5\"", got)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("unmarshal 503 body: %v", err)
	}
	if eb.Error.Code != "draining" || eb.Error.RetryAfterMS != drainRetryAfter.Milliseconds() {
		t.Errorf("503 body %+v, want draining with retry_after_ms=%d",
			eb.Error, drainRetryAfter.Milliseconds())
	}
}

// TestJobResumeAcrossRestart: a daemon killed mid-job resumes it from the
// WAL on the next start and lands on counts bit-identical to an
// uninterrupted run of the same spec.
func TestJobResumeAcrossRestart(t *testing.T) {
	spec := map[string]any{
		"qasm": ghzQASM, "shots": 1_000_000, "seed": 11,
	}

	// Reference: uninterrupted run.
	_, refBase := startServer(t, Config{JobsDir: t.TempDir()})
	var refSt job.Status
	if code, _ := postJSON(t, refBase, "/v1/jobs", spec, &refSt); code != http.StatusAccepted {
		t.Fatalf("reference submit status %d", code)
	}
	waitJob(t, refBase, refSt.ID, func(s job.Status) bool { return s.State == job.StateCompleted })
	var ref jobResult
	getJSON(t, refBase+"/v1/jobs/"+refSt.ID+"/result", &ref)

	// Interrupted run: stop the daemon mid-job, restart on the same WAL.
	dir := t.TempDir()
	srv1 := New(Config{Addr: "127.0.0.1:0", JobsDir: dir})
	if err := srv1.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	base1 := "http://" + srv1.Addr()
	var st job.Status
	if code, _ := postJSON(t, base1, "/v1/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitJob(t, base1, st.ID, func(s job.Status) bool { return s.ChunksDone >= 2 })
	if err := srv1.Close(); err != nil {
		t.Logf("close: %v", err)
	}

	srv2, base2 := startServer(t, Config{JobsDir: dir})
	_ = srv2
	done := waitJob(t, base2, st.ID, func(s job.Status) bool { return s.State == job.StateCompleted })
	if done.ChunksRecovered < 2 {
		t.Errorf("recovered %d chunks, want >= 2", done.ChunksRecovered)
	}
	resampled := done.ChunksExecuted - (done.ChunksTotal - done.ChunksRecovered)
	if resampled < 0 || resampled > 1 {
		t.Errorf("re-sampled %d chunks, want <= 1 (executed=%d total=%d recovered=%d)",
			resampled, done.ChunksExecuted, done.ChunksTotal, done.ChunksRecovered)
	}
	var got jobResult
	getJSON(t, base2+"/v1/jobs/"+st.ID+"/result", &got)
	if !reflect.DeepEqual(got.Counts, ref.Counts) {
		t.Errorf("resumed counts differ from uninterrupted run:\n got %v\nwant %v", got.Counts, ref.Counts)
	}
}

// TestJobSharesSnapshotWithSample: a job for a circuit already sampled
// interactively reuses the cached snapshot (no second strong simulation).
func TestJobSharesSnapshotWithSample(t *testing.T) {
	srv, base := startServer(t, Config{})
	var sr sampleResult
	if code, _ := post(t, base, map[string]any{"qasm": ghzQASM, "shots": 100}, &sr); code != http.StatusOK {
		t.Fatalf("sample status %d", code)
	}
	sims := srv.pool.sims.Value()

	var st job.Status
	if code, _ := postJSON(t, base, "/v1/jobs", map[string]any{"qasm": ghzQASM, "shots": 10_000}, &st); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitJob(t, base, st.ID, func(s job.Status) bool { return s.State == job.StateCompleted })
	if got := srv.pool.sims.Value(); got != sims {
		t.Errorf("job triggered %d extra strong simulations, want 0 (cache hit)", got-sims)
	}
	if st.CircuitKey != sr.CircuitKey {
		t.Errorf("job key %s != sample key %s for the same circuit", st.CircuitKey, sr.CircuitKey)
	}
}

// TestJobMethodRouting pins the method/path edges of the jobs surface: 405s
// carry Allow headers, missing IDs are 400s, and result/events on unknown
// jobs are 404s.
func TestJobMethodRouting(t *testing.T) {
	_, base := startServer(t, Config{})

	do := func(method, path string) (int, http.Header) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	if code, hdr := do(http.MethodPut, "/v1/jobs"); code != http.StatusMethodNotAllowed || hdr.Get("Allow") == "" {
		t.Errorf("PUT /v1/jobs: status %d, Allow %q; want 405 with Allow", code, hdr.Get("Allow"))
	}
	if code, hdr := do(http.MethodPatch, "/v1/jobs/j123"); code != http.StatusMethodNotAllowed || hdr.Get("Allow") == "" {
		t.Errorf("PATCH job: status %d, Allow %q; want 405 with Allow", code, hdr.Get("Allow"))
	}
	if code, _ := do(http.MethodGet, "/v1/jobs/j123/bogus"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET unknown subresource: status %d, want 405", code)
	}
	if code, _ := do(http.MethodGet, "/v1/jobs/"); code != http.StatusBadRequest {
		t.Errorf("GET with empty ID: status %d, want 400", code)
	}
	for _, sub := range []string{"", "/result", "/events"} {
		if code, _ := do(http.MethodGet, "/v1/jobs/jmissing"+sub); code != http.StatusNotFound {
			t.Errorf("GET missing job%s: status %d, want 404", sub, code)
		}
	}
	if code, _ := do(http.MethodDelete, "/v1/jobs/jmissing"); code != http.StatusNotFound {
		t.Errorf("DELETE missing job: status %d, want 404", code)
	}
}

// TestJobResultHTTP exercises the result handler's success shape directly:
// counts, qubits, shots, and seed all round-trip.
func TestJobResultHTTP(t *testing.T) {
	_, base := startServer(t, Config{})
	var st job.Status
	code, _ := postJSON(t, base, "/v1/jobs", map[string]any{
		"circuit": "ghz_4", "shots": 300, "seed": 9,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitJob(t, base, st.ID, func(s job.Status) bool { return s.State == job.StateCompleted })

	var res struct {
		JobID  string         `json:"job_id"`
		Counts map[string]int `json:"counts"`
		Qubits int            `json:"qubits"`
		Shots  int            `json:"shots"`
		Seed   uint64         `json:"seed"`
	}
	if code := getJSON(t, base+"/v1/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if res.JobID != st.ID || res.Qubits != 4 || res.Shots != 300 || res.Seed != 9 {
		t.Fatalf("result metadata %+v does not match the submit", res)
	}
	total := 0
	for bits, n := range res.Counts {
		if bits != "0000" && bits != "1111" {
			t.Fatalf("impossible GHZ outcome %q", bits)
		}
		total += n
	}
	if total != 300 {
		t.Fatalf("counts sum to %d, want 300", total)
	}
}
