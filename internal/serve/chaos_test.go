package serve

// Chaos suite: every fault class at every serving-path injection point must
// map onto the governance ladder the daemon already speaks — 507 for
// engine-level resource exhaustion, 504 for blown deadlines, 429 for shed
// load, 500 (structured, recovered) for panics, and silent degradation for
// faults in optional layers (cache admission, persistence). Run via
// `make chaos` under -race.
//
// The fault plan is process-global, so these tests never call t.Parallel
// and always disarm on cleanup.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"weaksim/internal/fault"
	"weaksim/internal/snapstore"
)

// armFault enables a fault spec for the duration of the test.
func armFault(t *testing.T, spec string) {
	t.Helper()
	if err := fault.Enable(spec, 99); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
}

// sampleBody is the canonical chaos request: small GHZ circuit, fixed seed.
func sampleBody(shots, workers int) map[string]any {
	return map[string]any{"qasm": ghzQASM, "shots": shots, "seed": 7, "workers": workers}
}

func TestChaosUniqueInsertFaultIsMemoryOut(t *testing.T) {
	srv, base := startServer(t, Config{})
	armFault(t, "dd.unique.insert:err@1+")
	var eb errorBody
	status, _ := post(t, base, sampleBody(16, 1), &eb)
	if status != http.StatusInsufficientStorage || eb.Error.Code != "memory_out" {
		t.Fatalf("status=%d code=%q, want 507 memory_out", status, eb.Error.Code)
	}
	// Disarm: the same circuit simulates cleanly — the fault left no residue.
	fault.Disable()
	var ok sampleResult
	if status, _ := post(t, base, sampleBody(16, 1), &ok); status != http.StatusOK {
		t.Fatalf("recovery request status=%d", status)
	}
	if srv.Metrics().Counter("serve_errors_total").Value() == 0 {
		t.Fatal("error counter not bumped")
	}
}

func TestChaosFreezeFaultIsInternal(t *testing.T) {
	_, base := startServer(t, Config{})
	armFault(t, "dd.freeze:err@1")
	var eb errorBody
	status, _ := post(t, base, sampleBody(16, 1), &eb)
	if status != http.StatusInternalServerError || eb.Error.Code != "internal" {
		t.Fatalf("status=%d code=%q, want 500 internal", status, eb.Error.Code)
	}
	var ok sampleResult
	if status, _ := post(t, base, sampleBody(16, 1), &ok); status != http.StatusOK {
		t.Fatalf("recovery request status=%d", status)
	}
}

func TestChaosQueueSubmitFaultShedsLoad(t *testing.T) {
	_, base := startServer(t, Config{})
	armFault(t, "serve.queue.submit:err@1")
	var eb errorBody
	status, hdr := post(t, base, sampleBody(16, 1), &eb)
	if status != http.StatusTooManyRequests || eb.Error.Code != "queue_full" {
		t.Fatalf("status=%d code=%q, want 429 queue_full", status, eb.Error.Code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var ok sampleResult
	if status, _ := post(t, base, sampleBody(16, 1), &ok); status != http.StatusOK {
		t.Fatalf("recovery request status=%d", status)
	}
}

// TestChaosSimPanicIsolated is the panic-isolation regression: an injected
// panic on a simulation worker answers one structured 500 and the daemon
// keeps serving — the flight is resolved (no hung waiters), the worker
// survives, and the next request succeeds.
func TestChaosSimPanicIsolated(t *testing.T) {
	srv, base := startServer(t, Config{SimWorkers: 1})
	armFault(t, "serve.sim:panic@1")
	var eb errorBody
	status, _ := post(t, base, sampleBody(16, 1), &eb)
	if status != http.StatusInternalServerError || eb.Error.Code != "panic" {
		t.Fatalf("status=%d code=%q, want 500 panic", status, eb.Error.Code)
	}
	if got := srv.Metrics().Counter("serve_panics_total").Value(); got != 1 {
		t.Fatalf("serve_panics_total=%d, want 1", got)
	}
	// Same (sole) worker must still be alive and simulate the next request.
	var ok sampleResult
	if status, _ := post(t, base, sampleBody(16, 1), &ok); status != http.StatusOK {
		t.Fatalf("daemon stopped serving after a worker panic: status=%d", status)
	}
	if getJSON(t, base+"/healthz", nil) != http.StatusOK {
		t.Fatal("liveness lost after a recovered panic")
	}
}

func TestChaosSamplerLatencyIsTimeout(t *testing.T) {
	_, base := startServer(t, Config{MaxSampleWorkers: 8})
	// Prime the cache so the fault hits sampling, not simulation.
	var ok sampleResult
	if status, _ := post(t, base, sampleBody(16, 1), &ok); status != http.StatusOK {
		t.Fatalf("prime status=%d", status)
	}
	armFault(t, "sampler.walk:latency(150ms)@1+")
	body := sampleBody(2048, 1)
	body["timeout_ms"] = 50
	var eb errorBody
	status, _ := post(t, base, body, &eb)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status=%d code=%q, want 504", status, eb.Error.Code)
	}
	fault.Disable()
	if status, _ := post(t, base, body, &ok); status != http.StatusOK {
		t.Fatalf("recovery request status=%d", status)
	}
}

// TestChaosCacheAdmitFaultDegrades: every fault class at cache admission
// skips retention — requests still answer 200 with correct counts, they
// just re-simulate. Uncached is degraded, not broken.
func TestChaosCacheAdmitFaultDegrades(t *testing.T) {
	for _, class := range []string{"err", "panic", "latency(5ms)"} {
		t.Run(class, func(t *testing.T) {
			_, base := startServer(t, Config{})
			armFault(t, "serve.cache.admit:"+class+"@1+")
			var first, second sampleResult
			if status, _ := post(t, base, sampleBody(64, 1), &first); status != http.StatusOK {
				t.Fatalf("first status=%d", status)
			}
			if status, _ := post(t, base, sampleBody(64, 1), &second); status != http.StatusOK {
				t.Fatalf("second status=%d", status)
			}
			// latency delays admission but does not skip it, so only the
			// harder classes must show a cold cache; all classes must agree
			// on the counts.
			if class != "latency(5ms)" && (first.Cached || second.Cached) {
				t.Fatalf("cached=%v/%v under admit fault, want uncached", first.Cached, second.Cached)
			}
			if !reflect.DeepEqual(first.Counts, second.Counts) {
				t.Fatal("counts diverged between re-simulations")
			}
			fault.Disable()
			// Healed: one more simulation admits, then a true cache hit.
			if status, _ := post(t, base, sampleBody(64, 1), &first); status != http.StatusOK {
				t.Fatalf("post-heal status=%d", status)
			}
			var hit sampleResult
			if status, _ := post(t, base, sampleBody(64, 1), &hit); status != http.StatusOK || !hit.Cached {
				t.Fatalf("status=%d cached=%v after heal, want cached hit", status, hit.Cached)
			}

		})
	}
}

func TestChaosSnapstoreWriteFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	srv, base := startServer(t, Config{SnapshotDir: dir})
	armFault(t, "snapstore.write:err@1+")
	var ok sampleResult
	if status, _ := post(t, base, sampleBody(32, 1), &ok); status != http.StatusOK {
		t.Fatalf("status=%d, want 200 despite persistence failure", status)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wsnap") {
			t.Fatalf("failed Put materialized %s", e.Name())
		}
	}
	// The in-memory cache is unaffected by the dead store.
	var hit sampleResult
	if status, _ := post(t, base, sampleBody(32, 1), &hit); status != http.StatusOK || !hit.Cached {
		t.Fatalf("status=%d cached=%v, want cached hit", status, hit.Cached)
	}
	// The failure is visible to an operator: counted once, and in the ring.
	if got := srv.Metrics().Counter("serve_snapshot_persist_failures_total").Value(); got != 1 {
		t.Fatalf("serve_snapshot_persist_failures_total = %d, want 1", got)
	}
	logged := false
	for _, rec := range srv.recorder.Snapshot() {
		logged = logged || (rec.Kind == "event" && rec.Name == "persist-failed")
	}
	if !logged {
		t.Fatal("no persist-failed event in the flight ring")
	}
}

// TestChaosCorruptSnapshotQuarantinedOnRestart: a snapshot corrupted on the
// way to disk (injected bit rot) is detected by the CRC on the next start,
// quarantined as *.corrupt, and its circuit transparently re-simulated.
func TestChaosCorruptSnapshotQuarantinedOnRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, base1 := startServer(t, Config{SnapshotDir: dir})
	armFault(t, "snapstore.write:corrupt@1")
	var first sampleResult
	if status, _ := post(t, base1, sampleBody(64, 1), &first); status != http.StatusOK {
		t.Fatalf("status=%d", status)
	}
	fault.Disable()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, base2 := startServer(t, Config{SnapshotDir: dir})
	// Warm restart found the corruption and quarantined it.
	var corrupt, clean int
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".corrupt"):
			corrupt++
		case strings.HasSuffix(e.Name(), ".wsnap"):
			clean++
		}
	}
	if corrupt != 1 || clean != 0 {
		t.Fatalf("after restart: %d corrupt, %d clean files, want 1/0", corrupt, clean)
	}
	if got := srv2.Metrics().Counter("snapstore_quarantined_total").Value(); got != 1 {
		t.Fatalf("snapstore_quarantined_total=%d, want 1", got)
	}
	// The circuit re-simulates (never served from the bad file) with the
	// same deterministic counts, and persists a fresh, valid snapshot.
	var again sampleResult
	if status, _ := post(t, base2, sampleBody(64, 1), &again); status != http.StatusOK {
		t.Fatalf("re-simulation status=%d", status)
	}
	if again.Cached {
		t.Fatal("request served from a quarantined snapshot")
	}
	if !reflect.DeepEqual(first.Counts, again.Counts) {
		t.Fatal("re-simulated counts diverged")
	}
	waitForFile(t, dir, ".wsnap")
}

// TestWarmRestartOverV1SnapshotResimulates: a daemon started over a
// directory holding a snapshot from the retired codec version 1 neither
// loads nor quarantines it. The circuit's first request re-simulates it
// once and rewrites the file in the current version, which the next
// restart serves warm.
func TestWarmRestartOverV1SnapshotResimulates(t *testing.T) {
	dir := t.TempDir()
	key, v1 := v1Snapshot(t)
	path := filepath.Join(dir, key+".wsnap")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	srv1, base1 := startServer(t, Config{SnapshotDir: dir})
	if got := srv1.Metrics().Counter("serve_warm_loaded_total").Value(); got != 0 {
		t.Fatalf("warm restart loaded %d version-1 snapshots, want 0", got)
	}
	if got := srv1.Metrics().Counter("snapstore_quarantined_total").Value(); got != 0 {
		t.Fatalf("version-1 snapshot was quarantined (%d)", got)
	}
	var first sampleResult
	if status, _ := post(t, base1, sampleBody(64, 1), &first); status != http.StatusOK {
		t.Fatalf("status=%d", status)
	}
	if first.Cached || first.CircuitKey != key {
		t.Fatalf("first request cached=%v key=%s, want a cold simulation of %s", first.Cached, first.CircuitKey, key)
	}
	// The counts the version-1 build answered this request with.
	if want := map[string]int{"000": 33, "111": 31}; !reflect.DeepEqual(first.Counts, want) {
		t.Fatalf("re-simulated counts %v, want the version-1 build's %v", first.Counts, want)
	}
	if sims := srv1.Metrics().Counter("serve_sims_total").Value(); sims != 1 {
		t.Fatalf("serve_sims_total=%d, want 1", sims)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapstore.Decode(data); err != nil {
		t.Fatalf("rewritten snapshot does not decode in this version: %v", err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, base2 := startServer(t, Config{SnapshotDir: dir})
	var again sampleResult
	if status, _ := post(t, base2, sampleBody(64, 1), &again); status != http.StatusOK {
		t.Fatalf("restarted status=%d", status)
	}
	if !again.Cached || !reflect.DeepEqual(first.Counts, again.Counts) {
		t.Fatalf("restarted daemon: cached=%v, counts equal=%v; want a warm hit with the same counts",
			again.Cached, reflect.DeepEqual(first.Counts, again.Counts))
	}
	if sims := srv2.Metrics().Counter("serve_sims_total").Value(); sims != 0 {
		t.Fatalf("restarted daemon ran %d strong simulations, want 0", sims)
	}
}

func waitForFile(t *testing.T, dir, suffix string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), suffix) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s file appeared in %s", suffix, dir)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosSnapstoreReadFaultFallsBackToSim(t *testing.T) {
	dir := t.TempDir()
	srv1, base1 := startServer(t, Config{SnapshotDir: dir})
	var first sampleResult
	if status, _ := post(t, base1, sampleBody(64, 1), &first); status != http.StatusOK {
		t.Fatalf("status=%d", status)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	// Every disk read fails: warm restart loads nothing, but the daemon
	// still serves by re-simulating — and the file survives untouched.
	armFault(t, "snapstore.read:err@1+")
	_, base2 := startServer(t, Config{SnapshotDir: dir})
	var again sampleResult
	if status, _ := post(t, base2, sampleBody(64, 1), &again); status != http.StatusOK {
		t.Fatalf("status=%d under read faults", status)
	}
	if !reflect.DeepEqual(first.Counts, again.Counts) {
		t.Fatal("counts diverged")
	}
	fault.Disable()
	if _, err := os.Stat(filepath.Join(dir, first.CircuitKey+".wsnap")); err != nil {
		t.Fatalf("read faults damaged the stored file: %v", err)
	}
}

// TestReadyzSplitsFromHealthzDuringDrain: readiness flips 503 the moment a
// drain begins; liveness stays 200 until the process exits.
func TestReadyzSplitsFromHealthzDuringDrain(t *testing.T) {
	srv, _ := startServer(t, Config{SimWorkers: 1, QueueDepth: 0})
	h := srv.Handler()
	probe := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if got := probe("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", got)
	}
	if got := probe("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz before drain: %d", got)
	}

	// Park the sole worker so Shutdown blocks in the drain, then observe the
	// mid-drain probe split.
	release := occupyWorker(t, srv.pool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for probe("/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			release()
			t.Fatal("/readyz never turned 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := probe("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200 (liveness is not readiness)", got)
	}
	release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never finished")
	}
}

// TestWarmRestartDeterminismAcrossWorkers: counts sampled from a
// disk-reloaded snapshot are bit-for-bit identical to counts sampled from
// the live-frozen one, for the same (circuit, seed, shots, workers) — at
// both ends of the worker spectrum, under -race via the stress target.
func TestWarmRestartDeterminismAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	live := map[int]map[string]int{}
	srv1, base1 := startServer(t, Config{SnapshotDir: dir, MaxSampleWorkers: 8})
	for _, workers := range []int{1, 8} {
		var resp sampleResult
		if status, _ := post(t, base1, sampleBody(4096, workers), &resp); status != http.StatusOK {
			t.Fatalf("workers=%d status=%d", workers, status)
		}
		live[workers] = resp.Counts
	}
	waitForFile(t, dir, ".wsnap")
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, base2 := startServer(t, Config{SnapshotDir: dir, MaxSampleWorkers: 8})
	for _, workers := range []int{1, 8} {
		var resp sampleResult
		if status, _ := post(t, base2, sampleBody(4096, workers), &resp); status != http.StatusOK {
			t.Fatalf("restarted workers=%d status=%d", workers, status)
		}
		if !resp.Cached {
			t.Fatalf("workers=%d: restarted daemon did not serve from the warm cache", workers)
		}
		if !reflect.DeepEqual(live[workers], resp.Counts) {
			t.Fatalf("workers=%d: disk-reloaded counts differ from live-frozen counts", workers)
		}
	}
	// Zero strong simulations after restart — the whole point of the store.
	if sims := srv2.Metrics().Counter("serve_sims_total").Value(); sims != 0 {
		t.Fatalf("restarted daemon ran %d strong simulations, want 0", sims)
	}
	// The warm load is on record in the flight ring.
	warm := false
	for _, rec := range srv2.recorder.Snapshot() {
		warm = warm || (rec.Kind == "event" && rec.Name == "warm-restart" && rec.Attrs["loaded"] == 1)
	}
	if !warm {
		t.Fatal("no warm-restart event in the restarted daemon's flight ring")
	}
}

// TestChaosFaultFiringDumpsFlightRecorder: an injected fault that fires is
// not just a counter — the fault observer trips the flight recorder, which
// dumps the recent-span ring to disk as well-formed JSONL. The dump must
// contain the trip record naming the fired point and the spans of the
// requests that preceded the failure.
func TestChaosFaultFiringDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	srv, base := startServer(t, Config{FlightDir: dir})

	// A clean request first, so the ring has request spans to dump.
	var ok sampleResult
	if status, _ := post(t, base, sampleBody(16, 1), &ok); status != http.StatusOK {
		t.Fatalf("prime status=%d", status)
	}

	armFault(t, "serve.sim:err@1")
	body := sampleBody(16, 1)
	body["qasm"] = ghzQASM + "h q[1];\n" // different key: forces a fresh simulation
	var eb errorBody
	if status, _ := post(t, base, body, &eb); status != http.StatusInternalServerError {
		t.Fatalf("faulted status=%d code=%q, want 500", status, eb.Error.Code)
	}

	if fired := srv.Metrics().Counter("serve_fault_fired_total").Value(); fired == 0 {
		t.Fatal("serve_fault_fired_total not bumped")
	}

	// Exactly the fault trip must have produced a dump file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dump string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "flight-") && strings.HasSuffix(e.Name(), ".jsonl") {
			dump = filepath.Join(dir, e.Name())
		}
	}
	if dump == "" {
		t.Fatalf("no flight-*.jsonl dump in %s (entries: %v)", dir, entries)
	}

	// Every line is valid JSON; the trip record names the fired point, and
	// the ring carries the preceding request's serve span.
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var sawTrip, sawServeSpan bool
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		lines++
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %q (%v)", lines, line, err)
		}
		if rec["kind"] == "trip" && rec["name"] == "fault:serve.sim" {
			sawTrip = true
		}
		if rec["kind"] == "span" && rec["phase"] == "serve" && rec["name"] == "/v1/sample" {
			sawServeSpan = true
		}
	}
	if lines == 0 || !sawTrip || !sawServeSpan {
		t.Fatalf("dump with %d lines: sawTrip=%v sawServeSpan=%v", lines, sawTrip, sawServeSpan)
	}
}
