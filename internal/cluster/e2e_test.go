package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weaksim/internal/core"
	"weaksim/internal/obs"
	"weaksim/internal/serve"
)

// replica is one real in-process weaksimd backend.
type replica struct {
	srv  *serve.Server
	reg  *obs.Registry
	name string // normalized base URL, the ring identity
}

func startReplica(t *testing.T) *replica {
	t.Helper()
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0", Metrics: reg})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &replica{srv: srv, reg: reg, name: normalizeBackend(srv.Addr())}
}

func (r *replica) sims() uint64 { return r.reg.Counter("serve_sims_total").Value() }

type sampleResp struct {
	Counts     map[string]int `json:"counts"`
	Cached     bool           `json:"cached"`
	CircuitKey string         `json:"circuit_key"`
}

// sampleVia posts one request and returns its status, answering backend
// and decoded body; unlike postSample it is safe off the test goroutine.
func sampleVia(base string, body []byte) (int, string, sampleResp, error) {
	resp, err := http.Post(base+"/v1/sample", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", sampleResp{}, err
	}
	defer resp.Body.Close()
	var out sampleResp
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, resp.Header.Get("X-Weaksim-Backend"), out, nil
}

func postSample(t *testing.T, base string, body []byte) (int, string, sampleResp) {
	t.Helper()
	status, name, out, err := sampleVia(base, body)
	if err != nil {
		t.Fatalf("POST /v1/sample: %v", err)
	}
	return status, name, out
}

func totalSims(reps []*replica) uint64 {
	var n uint64
	for _, r := range reps {
		n += r.sims()
	}
	return n
}

// TestClusterEndToEndKillAndShip is the acceptance e2e: three replicas
// behind the router serve six circuits, each strongly simulated exactly once
// fleet-wide and shipped once to its ring secondary. Killing one circuit's
// primary in the middle of concurrent load loses zero client requests —
// requests fail over to ring candidates that snapshot shipping already
// warmed, so no circuit is strongly simulated a second time — and the
// prober's verdict shows on GET /v1/cluster.
func TestClusterEndToEndKillAndShip(t *testing.T) {
	const (
		nCircuits = 6
		loaders   = 6
		loadIters = 120
	)
	reps := []*replica{startReplica(t), startReplica(t), startReplica(t)}
	backends := make([]string, len(reps))
	for i, r := range reps {
		backends[i] = r.name
	}
	router := startRouter(t, Config{
		Backends:      backends,
		ReplicaCount:  1,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		FailThreshold: 2,
		MaxBackoff:    100 * time.Millisecond,
	})
	base := "http://" + router.Addr()

	bodies := make([][]byte, nCircuits)
	for i := range bodies {
		body, err := json.Marshal(map[string]any{"qasm": ghzQASMN(3 + i), "shots": 512, "seed": uint64(9)})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}

	// Cold: each circuit is strongly simulated exactly once, somewhere.
	baseline := make([]map[string]int, nCircuits)
	primary := make([]string, nCircuits)
	for i, body := range bodies {
		status, name, cold := postSample(t, base, body)
		if status != http.StatusOK || cold.Cached {
			t.Fatalf("cold request %d: status %d cached %v", i, status, cold.Cached)
		}
		if got := totalSims(reps); got != uint64(i+1) {
			t.Fatalf("cold request %d: %d sims fleet-wide, want %d", i, got, i+1)
		}
		baseline[i], primary[i] = cold.Counts, name
	}
	router.Quiesce()
	if got := router.Metrics().Counter("cluster_ship_installed_total").Value(); got != nCircuits {
		t.Fatalf("ship_installed_total = %d after the cold builds, want %d (ReplicaCount=1)", got, nCircuits)
	}

	// Warm: deterministic cache hits pinned to each circuit's primary.
	for i, body := range bodies {
		status, name, warm := postSample(t, base, body)
		if status != http.StatusOK || !warm.Cached || name != primary[i] {
			t.Fatalf("warm request %d: status %d cached %v backend %s (primary %s)",
				i, status, warm.Cached, name, primary[i])
		}
		if !reflect.DeepEqual(baseline[i], warm.Counts) {
			t.Fatalf("warm counts diverge on circuit %d:\ncold %v\nwarm %v", i, baseline[i], warm.Counts)
		}
	}
	if got := totalSims(reps); got != nCircuits {
		t.Fatalf("warm requests re-simulated: %d sims, want %d", got, nCircuits)
	}

	primaryName := primary[0]
	var victim *replica
	for _, r := range reps {
		if r.name == primaryName {
			victim = r
		}
	}
	if victim == nil {
		t.Fatalf("unknown primary %q", primaryName)
	}

	// Kill circuit 0's primary once the loaders are under way. Every request,
	// before and after the kill, must be a 200 with the baseline counts:
	// transport errors fail over immediately, and the failover targets were
	// warmed by snapshot shipping.
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < loadIters; it++ {
				i := (w + it) % nCircuits
				status, name, got, err := sampleVia(base, bodies[i])
				served.Add(1)
				if err != nil || status != http.StatusOK {
					t.Errorf("loader %d iter %d circuit %d: status %d err %v", w, it, i, status, err)
					return
				}
				if !got.Cached {
					t.Errorf("loader %d iter %d circuit %d: served cold by %s", w, it, i, name)
					return
				}
				if !reflect.DeepEqual(baseline[i], got.Counts) {
					t.Errorf("loader %d iter %d circuit %d: counts diverge on %s", w, it, i, name)
					return
				}
			}
		}(w)
	}
	for served.Load() < loaders*10 && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	if err := victim.srv.Close(); err != nil {
		t.Fatalf("killing primary: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// After the kill, circuit 0 is answered warm by someone else.
	for i := 0; i < 12; i++ {
		status, name, got := postSample(t, base, bodies[0])
		if status != http.StatusOK {
			t.Fatalf("post-kill request %d: status %d", i, status)
		}
		if name == primaryName {
			t.Fatalf("post-kill request %d still answered by the dead primary", i)
		}
		if !got.Cached {
			t.Fatalf("post-kill request %d served cold — snapshot shipping did not warm %s", i, name)
		}
		if !reflect.DeepEqual(baseline[0], got.Counts) {
			t.Fatalf("post-kill counts diverge on request %d", i)
		}
	}
	if got := totalSims(reps); got != nCircuits {
		t.Fatalf("failover re-simulated: %d sims, want still %d", got, nCircuits)
	}
	if fo := router.Metrics().Counter("cluster_failovers_total").Value(); fo == 0 {
		t.Fatal("no failover was recorded")
	}

	// The probe window ejects the corpse, GET /v1/cluster reports it
	// unhealthy, and once ejected requests stop paying the failed-connect
	// hop entirely.
	deadline := time.Now().Add(5 * time.Second)
	for !reportsUnhealthy(t, base, primaryName) {
		if time.Now().After(deadline) {
			t.Fatalf("GET /v1/cluster never reported the dead primary %s unhealthy", primaryName)
		}
		time.Sleep(10 * time.Millisecond)
	}
	foBefore := router.Metrics().Counter("cluster_failovers_total").Value()
	if status, _, _ := postSample(t, base, bodies[0]); status != http.StatusOK {
		t.Fatalf("post-ejection request: status %d", status)
	}
	if fo := router.Metrics().Counter("cluster_failovers_total").Value(); fo != foBefore {
		t.Fatalf("ejected primary still tried first (failovers %d -> %d)", foBefore, fo)
	}
}

// reportsUnhealthy reads GET /v1/cluster and reports whether it lists the
// backend name as unhealthy.
func reportsUnhealthy(t *testing.T, base, name string) bool {
	t.Helper()
	var st clusterStatus
	resp, err := http.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /v1/cluster: %v", err)
	}
	for _, b := range st.Backends {
		if b.Name == name {
			return !b.Healthy
		}
	}
	t.Fatalf("GET /v1/cluster does not list %s: %+v", name, st.Backends)
	return false
}

// TestClusterShipOnJoin: a backend joining the ring takes over as primary
// for some circuits; the router ships their snapshots from the old holder
// instead of letting the newcomer re-simulate — one network copy, zero
// second strong simulations.
func TestClusterShipOnJoin(t *testing.T) {
	a, b := startReplica(t), startReplica(t)

	// A circuit whose primary in the two-member ring will be the newcomer b.
	body := circuitKeyed(t, []string{a.name, b.name}, b.name)

	path := filepath.Join(t.TempDir(), "backends.txt")
	if err := os.WriteFile(path, []byte(a.name+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	router := startRouter(t, Config{
		BackendsFile:  path,
		WatchInterval: 15 * time.Millisecond,
		ReplicaCount:  1,
		ProbeInterval: 25 * time.Millisecond,
	})
	base := "http://" + router.Addr()

	status, name, cold := postSample(t, base, body)
	if status != http.StatusOK || name != a.name {
		t.Fatalf("cold request: status %d backend %s, want 200 from %s", status, name, a.name)
	}
	if a.sims() != 1 {
		t.Fatalf("a ran %d sims, want 1", a.sims())
	}

	if err := os.WriteFile(path, []byte(a.name+"\n"+b.name+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if router.Metrics().Gauge("cluster_backends").Value() == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	status, name, warm := postSample(t, base, body)
	if status != http.StatusOK {
		t.Fatalf("post-join request: status %d", status)
	}
	if name != b.name {
		t.Fatalf("post-join request answered by %s, want the new primary %s", name, b.name)
	}
	if !warm.Cached {
		t.Fatal("new primary served cold — the pre-forward ship did not happen")
	}
	if b.sims() != 0 {
		t.Fatalf("new primary ran %d sims, want 0 (snapshot was shipped)", b.sims())
	}
	if !reflect.DeepEqual(cold.Counts, warm.Counts) {
		t.Fatal("counts diverge after the handover")
	}
	if got := router.Metrics().Counter("cluster_ship_installed_total").Value(); got == 0 {
		t.Fatal("no ship was recorded")
	}
}

// TestClusterTraceRidesToReplica: a caller's traceparent survives the
// router hop — the replica's X-Weaksim-Trace-Id response (relayed by the
// router) is the caller's trace ID.
func TestClusterTraceRidesToReplica(t *testing.T) {
	a := startReplica(t)
	router := startRouter(t, Config{Backends: []string{a.name}})

	body, _ := json.Marshal(map[string]any{"qasm": ghzQASMN(3), "shots": 8})
	const traceID = "af7651916cd43dd8448eb211c80319c7"
	req, _ := http.NewRequest(http.MethodPost, "http://"+router.Addr()+"/v1/sample", bytes.NewReader(body))
	req.Header.Set("traceparent", "00-"+traceID+"-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Weaksim-Trace-Id"); got != traceID {
		t.Fatalf("replica traced request as %q, want the caller's trace %q spanning router->replica", got, traceID)
	}
}

// TestClusterMixedWalkFailover: a rolling upgrade leaves one replica on an
// older walk version behind the router next to two current ones. Once
// /readyz has told the router each replica's walk, a key whose primary dies
// fails over only to a replica of the primary's walk, so the answer's
// counts equal the primary's; and a key owned by the old replica is never
// answered by a current one, even when that replica refuses it.
func TestClusterMixedWalkFailover(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t)}
	var oldHits atomic.Int64
	var oldStatus atomic.Int64
	oldStatus.Store(http.StatusOK)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			fmt.Fprint(w, `{"status":"ready","walk":1}`)
		case "/v1/sample":
			oldHits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(int(oldStatus.Load()))
			fmt.Fprint(w, `{"counts":{"000":1},"cached":true}`)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer old.Close()
	oldName := normalizeBackend(old.URL)
	names := []string{reps[0].name, reps[1].name, oldName}
	router := startRouter(t, Config{
		Backends:      names,
		ReplicaCount:  2,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		FailThreshold: 1,
		MaxBackoff:    100 * time.Millisecond,
	})
	base := "http://" + router.Addr()
	// GET /v1/cluster shows each replica's walk once the prober has it.
	walks := map[string]int{}
	for deadline := time.Now().Add(5 * time.Second); len(walks) < len(names); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("GET /v1/cluster reported the walk of %d of %d replicas: %v", len(walks), len(names), walks)
		}
		var st clusterStatus
		resp, err := http.Get(base + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range st.Backends {
			if b.Walk != 0 {
				walks[b.Name] = b.Walk
			}
		}
	}
	if walks[oldName] != 1 || walks[reps[0].name] != core.WalkVersion || walks[reps[1].name] != core.WalkVersion {
		t.Fatalf("GET /v1/cluster walks %v, want 1 for %s and %d for the others", walks, oldName, core.WalkVersion)
	}

	// keyed finds a circuit whose ring order starts with first, then second.
	ring := buildRing(names, 0)
	keyed := func(first, second string) []byte {
		for n := 2; n < 60; n++ {
			body := sampleBody(t, n)
			key, err := serve.NewKeyMemo(0, 0).Key(body)
			if err != nil {
				t.Fatal(err)
			}
			if order := ring.lookup(key, 3); order[0] == first && (second == "" || order[1] == second) {
				return body
			}
		}
		t.Fatalf("no GHZ circuit routes to %s then %s", first, second)
		return nil
	}

	// A current primary with the old replica next in ring order.
	body := keyed(reps[0].name, oldName)
	status, by, want := postSample(t, base, body)
	if status != http.StatusOK || by != reps[0].name {
		t.Fatalf("first answer: status %d from %s, want 200 from the primary %s", status, by, reps[0].name)
	}
	_ = reps[0].srv.Close()
	status, by, got := postSample(t, base, body)
	if status != http.StatusOK || by != reps[1].name {
		t.Fatalf("after the primary died: status %d from %s, want 200 from %s (fleet %v)", status, by, reps[1].name, names)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatalf("failover counts %v, primary's %v", got.Counts, want.Counts)
	}
	if n := oldHits.Load(); n != 0 {
		t.Fatalf("the old-walk replica received %d requests for a current-walk key", n)
	}

	// The old replica owns a key and refuses it: no current replica takes it.
	body = keyed(oldName, "")
	oldStatus.Store(http.StatusServiceUnavailable)
	status, by, _ = postSample(t, base, body)
	if status != http.StatusServiceUnavailable || by != oldName {
		t.Fatalf("old-walk key: status %d from %s, want the old replica's 503 relayed", status, by)
	}
}
