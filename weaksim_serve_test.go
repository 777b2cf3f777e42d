package weaksim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"weaksim"
)

// TestServeFacade starts the sampling daemon through the public facade,
// samples a named benchmark circuit over HTTP, and drains.
func TestServeFacade(t *testing.T) {
	d, err := weaksim.Serve(weaksim.ServeConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d.Close()

	resp, err := http.Post("http://"+d.Addr()+"/v1/sample", "application/json",
		strings.NewReader(`{"circuit":"ghz_4","shots":64,"seed":9}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	var body struct {
		Counts map[string]int `json:"counts"`
		Qubits int            `json:"qubits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Qubits != 4 {
		t.Fatalf("qubits=%d, want 4", body.Qubits)
	}
	total := 0
	for bits, n := range body.Counts {
		if bits != "0000" && bits != "1111" {
			t.Fatalf("impossible GHZ bitstring %q", bits)
		}
		total += n
	}
	if total != 64 {
		t.Fatalf("counts sum to %d, want 64", total)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeFacadeNodeBudget routes the library node-budget Option through
// the daemon and expects the MO → 507 mapping.
func TestServeFacadeNodeBudget(t *testing.T) {
	d, err := weaksim.Serve(weaksim.ServeConfig{Addr: "127.0.0.1:0"},
		weaksim.WithNodeBudget(2))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d.Close()
	resp, err := http.Post("http://"+d.Addr()+"/v1/sample", "application/json",
		strings.NewReader(`{"circuit":"qft_8","shots":8}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("status=%d, want 507", resp.StatusCode)
	}
	var eb struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if eb.Error.Code != "memory_out" {
		t.Fatalf("code=%q, want memory_out", eb.Error.Code)
	}
}

// TestServeClusterFacade stands up two daemons plus a cluster router through
// the public facade and samples through the router: the same circuit must
// keep landing on the same replica, warm after the first request, and the
// cluster status endpoint must report both backends healthy.
func TestServeClusterFacade(t *testing.T) {
	d1, err := weaksim.Serve(weaksim.ServeConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d1.Close()
	d2, err := weaksim.Serve(weaksim.ServeConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d2.Close()

	router, err := weaksim.ServeCluster(weaksim.ClusterConfig{
		Addr:     "127.0.0.1:0",
		Backends: []string{d1.Addr(), d2.Addr()},
	})
	if err != nil {
		t.Fatalf("ServeCluster: %v", err)
	}
	defer router.Close()

	var backend string
	for i := 0; i < 2; i++ {
		resp, err := http.Post("http://"+router.Addr()+"/v1/sample", "application/json",
			strings.NewReader(`{"circuit":"ghz_5","shots":32,"seed":4}`))
		if err != nil {
			t.Fatalf("post via router: %v", err)
		}
		var body struct {
			Counts map[string]int `json:"counts"`
			Cached bool           `json:"cached"`
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status=%d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode: %v", err)
		}
		resp.Body.Close()
		name := resp.Header.Get("X-Weaksim-Backend")
		switch {
		case i == 0:
			backend = name
			if name == "" {
				t.Fatal("missing X-Weaksim-Backend")
			}
		case name != backend:
			t.Fatalf("circuit moved backend: %s then %s", backend, name)
		case !body.Cached:
			t.Fatal("second request not served warm")
		}
		total := 0
		for _, n := range body.Counts {
			total += n
		}
		if total != 32 {
			t.Fatalf("counts sum to %d, want 32", total)
		}
	}

	resp, err := http.Get("http://" + router.Addr() + "/v1/cluster")
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Backends []struct {
			Healthy bool `json:"healthy"`
		} `json:"backends"`
		ReplicaCount int `json:"replica_count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if len(st.Backends) != 2 || !st.Backends[0].Healthy || !st.Backends[1].Healthy {
		t.Fatalf("cluster status: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := router.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeFacadeTracerGetsServeSpans: a daemon started with WithTracer
// copies each finished request trace to the JSONL stream, under the
// request's trace ID, alongside the simulation's own records.
func TestServeFacadeTracerGetsServeSpans(t *testing.T) {
	var buf bytes.Buffer
	d, err := weaksim.Serve(weaksim.ServeConfig{Addr: "127.0.0.1:0"},
		weaksim.WithTracer(weaksim.NewJSONLTracer(&buf, 1)))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d.Close()
	resp, err := http.Post("http://"+d.Addr()+"/v1/sample", "application/json",
		strings.NewReader(`{"circuit":"ghz_4","shots":64,"seed":9}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Weaksim-Trace-Id")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The drain waits for the handler, so its trace has been copied by now.
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	phases := map[string]bool{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev weaksim.TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.TraceID == traceID && ev.Kind == "span" {
			phases[ev.Phase] = true
		}
	}
	for _, p := range []string{"parse", "queue", "build", "apply", "freeze", "sample", "serve"} {
		if !phases[p] {
			t.Errorf("stream lacks the request's %s span: %v", p, phases)
		}
	}
}
