package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"weaksim/internal/cluster"
	"weaksim/internal/serve"
)

func TestRunServesAndDrains(t *testing.T) {
	ready := make(chan *serve.Server, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var out, errBuf bytes.Buffer
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"},
			&out, &errBuf, ready, nil, stop)
	}()
	var srv *serve.Server
	select {
	case srv = <-ready:
	case err := <-errc:
		t.Fatalf("run exited early: %v (stderr: %s)", err, errBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Post("http://"+srv.Addr()+"/v1/sample", "application/json",
		strings.NewReader(`{"circuit":"ghz_2","shots":32,"seed":3}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	var body struct {
		Counts map[string]int `json:"counts"`
		Cached bool           `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	total := 0
	for bits, n := range body.Counts {
		if bits != "00" && bits != "11" {
			t.Fatalf("impossible GHZ bitstring %q", bits)
		}
		total += n
	}
	if total != 32 {
		t.Fatalf("counts sum to %d, want 32", total)
	}

	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
	for _, want := range []string{"listening on", "draining", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-norm", "bogus"}, &out, &errBuf, nil, nil, nil); err == nil {
		t.Fatal("bad -norm accepted")
	}
	if err := run([]string{"positional"}, &out, &errBuf, nil, nil, nil); err == nil {
		t.Fatal("positional argument accepted")
	}
	if err := run([]string{"-addr", "definitely:not:an:addr"}, &out, &errBuf, nil, nil, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// bootDaemon starts the daemon body with the given extra flags and returns
// the running server plus a shutdown function that triggers a graceful drain
// and waits for run to exit.
func bootDaemon(t *testing.T, extra ...string) (*serve.Server, func()) {
	t.Helper()
	ready := make(chan *serve.Server, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var out, errBuf bytes.Buffer
	args := append([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"}, extra...)
	go func() { errc <- run(args, &out, &errBuf, ready, nil, stop) }()
	var srv *serve.Server
	select {
	case srv = <-ready:
	case err := <-errc:
		t.Fatalf("run exited early: %v (stderr: %s)", err, errBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	var once sync.Once
	shutdown := func() {
		once.Do(func() { close(stop) })
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain")
		}
	}
	return srv, shutdown
}

func sampleDaemon(t *testing.T, srv *serve.Server, req string) (map[string]int, bool) {
	t.Helper()
	resp, err := http.Post("http://"+srv.Addr()+"/v1/sample", "application/json",
		strings.NewReader(req))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Counts map[string]int `json:"counts"`
		Cached bool           `json:"cached"`
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status=%d body=%s", resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return body.Counts, body.Cached
}

func daemonStats(t *testing.T, srv *serve.Server) (sims uint64) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Sims uint64 `json:"sims_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return st.Sims
}

// TestRunKillAndRestartWarm is the kill-and-restart e2e: a daemon with a
// snapshot dir is stopped after simulating a circuit, a second daemon boots
// on the same dir, and the restarted process answers the same request with
// bit-for-bit identical counts and zero strong simulations.
func TestRunKillAndRestartWarm(t *testing.T) {
	dir := t.TempDir()
	const req = `{"circuit":"ghz_3","shots":512,"seed":9,"workers":2}`

	srv1, shutdown1 := bootDaemon(t, "-snapshot-dir", dir, "-max-sample-workers", "4")
	cold, cached := sampleDaemon(t, srv1, req)
	if cached {
		t.Fatal("first request reported cached on a cold daemon")
	}
	waitForSnapshotFile(t, dir, ".wsnap")
	shutdown1()

	srv2, shutdown2 := bootDaemon(t, "-snapshot-dir", dir, "-max-sample-workers", "4")
	defer shutdown2()
	warm, cached := sampleDaemon(t, srv2, req)
	if !cached {
		t.Fatal("restarted daemon did not serve from the warm snapshot store")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("counts changed across restart:\n  before %v\n  after  %v", cold, warm)
	}
	if sims := daemonStats(t, srv2); sims != 0 {
		t.Fatalf("restarted daemon ran %d strong simulations, want 0", sims)
	}
}

// TestRunRestartQuarantinesDamage damages the persisted snapshots on disk
// between restarts — one truncated, one bit-flipped — and checks the
// restarted daemon quarantines both as *.corrupt and transparently
// re-simulates with identical counts.
func TestRunRestartQuarantinesDamage(t *testing.T) {
	dir := t.TempDir()
	reqs := []string{
		`{"circuit":"ghz_3","shots":256,"seed":5}`,
		`{"circuit":"ghz_4","shots":256,"seed":5}`,
	}

	srv1, shutdown1 := bootDaemon(t, "-snapshot-dir", dir)
	counts := make([]map[string]int, len(reqs))
	for i, req := range reqs {
		counts[i], _ = sampleDaemon(t, srv1, req)
	}
	waitForSnapshotFile(t, dir, ".wsnap")
	shutdown1()

	files, err := filepath.Glob(filepath.Join(dir, "*.wsnap"))
	if err != nil || len(files) != 2 {
		t.Fatalf("want 2 stored snapshots, got %v (err %v)", files, err)
	}
	// Truncate the first file, flip a payload bit in the second.
	if err := os.Truncate(files[0], 10); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(files[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, shutdown2 := bootDaemon(t, "-snapshot-dir", dir)
	defer shutdown2()
	corrupt, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 2 {
		t.Fatalf("want 2 quarantined files after restart, got %v", corrupt)
	}
	if clean, _ := filepath.Glob(filepath.Join(dir, "*.wsnap")); len(clean) != 0 {
		t.Fatalf("damaged files still stored: %v", clean)
	}
	for i, req := range reqs {
		again, cached := sampleDaemon(t, srv2, req)
		if cached {
			t.Fatalf("request %d served from a quarantined snapshot", i)
		}
		if !reflect.DeepEqual(counts[i], again) {
			t.Fatalf("request %d: re-simulated counts diverged", i)
		}
	}
	if sims := daemonStats(t, srv2); sims != 2 {
		t.Fatalf("sims_total=%d after quarantine, want 2 re-simulations", sims)
	}
}

// waitForSnapshotFile waits for the best-effort persist to materialize a
// file with the given suffix.
func waitForSnapshotFile(t *testing.T, dir, suffix string) {
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

// TestRunFaultFlag checks the chaos flag end to end: an armed daemon
// advertises the spec on stderr and the injected fault surfaces through the
// governance ladder, then a clean daemon is unaffected.
func TestRunFaultFlag(t *testing.T) {
	ready := make(chan *serve.Server, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var out, errBuf bytes.Buffer
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s",
			"-fault", "serve.queue.submit:err@1"}, &out, &errBuf, ready, nil, stop)
	}()
	var srv *serve.Server
	select {
	case srv = <-ready:
	case err := <-errc:
		t.Fatalf("run exited early: %v (stderr: %s)", err, errBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		close(stop)
		<-errc
	}()
	if !strings.Contains(errBuf.String(), "FAULT INJECTION ARMED") {
		t.Fatalf("armed daemon did not warn on stderr: %q", errBuf.String())
	}
	resp, err := http.Post("http://"+srv.Addr()+"/v1/sample", "application/json",
		strings.NewReader(`{"circuit":"ghz_2","shots":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status=%d, want 429 from injected queue fault", resp.StatusCode)
	}
	resp, err = http.Post("http://"+srv.Addr()+"/v1/sample", "application/json",
		strings.NewReader(`{"circuit":"ghz_2","shots":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d after the fault window closed, want 200", resp.StatusCode)
	}
}

func TestParseTenantWeights(t *testing.T) {
	got, err := parseTenantWeights(" acme=10, guest=1 ,,bulk=3")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"acme": 10, "guest": 1, "bulk": 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTenantWeights=%v, want %v", got, want)
	}
	if got, err := parseTenantWeights("  "); err != nil || got != nil {
		t.Fatalf("blank spec: got %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"acme", "acme=", "acme=0", "acme=-2", "=5", "acme=ten"} {
		if _, err := parseTenantWeights(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-job-tenant-weights", "acme=zero"}, &out, &errBuf, nil, nil, nil); err == nil {
		t.Fatal("bad -job-tenant-weights accepted by run")
	}
}

// TestRunEffectiveConfigLine checks the startup log's structured config
// line: one JSON object carrying the mode and every flag's resolved value,
// defaults and overrides alike.
func TestRunEffectiveConfigLine(t *testing.T) {
	ready := make(chan *serve.Server, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var out, errBuf bytes.Buffer
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s",
			"-job-workers", "3", "-job-tenant-weights", "acme=10,guest=1"},
			&out, &errBuf, ready, nil, stop)
	}()
	select {
	case <-ready:
	case err := <-errc:
		t.Fatalf("run exited early: %v (stderr: %s)", err, errBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		close(stop)
		<-errc
	}()

	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, `"event":"effective_config"`) {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("no effective_config line on stdout:\n%s", out.String())
	}
	var cfg struct {
		Event string            `json:"event"`
		Mode  string            `json:"mode"`
		Flags map[string]string `json:"flags"`
	}
	if err := json.Unmarshal([]byte(line), &cfg); err != nil {
		t.Fatalf("config line is not valid JSON: %v\n%s", err, line)
	}
	if cfg.Mode != "replica" {
		t.Fatalf("mode=%q, want replica", cfg.Mode)
	}
	for flag, want := range map[string]string{
		"job-workers":        "3",               // override
		"job-tenant-weights": "acme=10,guest=1", // override
		"norm":               "l2phase",         // default, resolved
		"addr":               "127.0.0.1:0",
	} {
		if got := cfg.Flags[flag]; got != want {
			t.Errorf("flags[%q]=%q, want %q", flag, got, want)
		}
	}
}

// TestRunJobFlags boots the daemon with the batch-job flags and drives one
// job, checkpointed in per-request 512-shot chunks, through the HTTP
// surface: submit, poll to completion, fetch the merged result.
func TestRunJobFlags(t *testing.T) {
	dir := t.TempDir()
	srv, shutdown := bootDaemon(t, "-jobs-dir", dir, "-job-workers", "2")
	defer shutdown()

	resp, err := http.Post("http://"+srv.Addr()+"/v1/jobs", "application/json",
		strings.NewReader(`{"circuit":"ghz_3","shots":2048,"seed":7,"chunk_shots":512}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st struct {
		ID          string `json:"job_id"`
		State       string `json:"state"`
		ChunksTotal int    `json:"chunks_total"`
	}
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit status=%d body=%s", resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(15 * time.Second)
	for st.State != "completed" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get("http://" + srv.Addr() + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.ChunksTotal != 4 {
		t.Fatalf("chunks_total=%d, want 4 chunks of 512 shots", st.ChunksTotal)
	}

	r, err := http.Get("http://" + srv.Addr() + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(r.Body)
		t.Fatalf("result status=%d body=%s", r.StatusCode, raw)
	}
	var res struct {
		Counts map[string]int `json:"counts"`
	}
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	total := 0
	for bits, n := range res.Counts {
		if bits != "000" && bits != "111" {
			t.Fatalf("impossible GHZ bitstring %q", bits)
		}
		total += n
	}
	if total != 2048 {
		t.Fatalf("counts sum to %d, want 2048", total)
	}
	// The WAL must have materialized in -jobs-dir.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.jlog"))
	if len(segs) == 0 {
		t.Fatalf("no WAL segment in %s", dir)
	}
}

// TestRunClusterMode boots two replica daemons plus a -cluster router over
// them and samples through the router: the response must come from a named
// backend, repeat warm from the same one, and the router must drain cleanly.
func TestRunClusterMode(t *testing.T) {
	rep1, shutdown1 := bootDaemon(t)
	defer shutdown1()
	rep2, shutdown2 := bootDaemon(t)
	defer shutdown2()

	clusterReady := make(chan *cluster.Router, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var out, errBuf bytes.Buffer
	go func() {
		errc <- run([]string{"-cluster", "-addr", "127.0.0.1:0", "-drain-timeout", "5s",
			"-backends", rep1.Addr() + "," + rep2.Addr(), "-probe-interval", "50ms"},
			&out, &errBuf, nil, clusterReady, stop)
	}()
	var router *cluster.Router
	select {
	case router = <-clusterReady:
	case err := <-errc:
		t.Fatalf("run exited early: %v (stderr: %s)", err, errBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("router never became ready")
	}

	const req = `{"circuit":"ghz_4","shots":128,"seed":11}`
	var backendHeader string
	for i := 0; i < 2; i++ {
		resp, err := http.Post("http://"+router.Addr()+"/v1/sample", "application/json",
			strings.NewReader(req))
		if err != nil {
			t.Fatalf("post via router: %v", err)
		}
		var body struct {
			Counts map[string]int `json:"counts"`
			Cached bool           `json:"cached"`
		}
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("status=%d body=%s", resp.StatusCode, raw)
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode: %v", err)
		}
		resp.Body.Close()
		name := resp.Header.Get("X-Weaksim-Backend")
		if name == "" {
			t.Fatal("router response missing X-Weaksim-Backend")
		}
		if i == 0 {
			backendHeader = name
			if body.Cached {
				t.Fatal("cold request reported cached")
			}
		} else if name != backendHeader {
			t.Fatalf("repeat request moved backend: %s then %s", backendHeader, name)
		} else if !body.Cached {
			t.Fatal("repeat request not served warm")
		}
	}

	// Ignored replica-side flags must not break router startup, and the
	// router must refuse to start with no backends at all.
	if err := run([]string{"-cluster"}, &out, &errBuf, nil, nil, nil); err == nil {
		t.Fatal("-cluster with no backends accepted")
	}

	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not drain")
	}
	for _, want := range []string{"cluster router listening on", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}
