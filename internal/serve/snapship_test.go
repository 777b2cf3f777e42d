package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc64"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"weaksim/internal/snapstore"
)

// shipSnapshot moves the frame for key from one daemon to another via the
// wire endpoints, returning the PUT status.
func shipSnapshot(t *testing.T, fromBase, toBase, key string, mutate func([]byte) []byte) int {
	t.Helper()
	resp, err := http.Get(fromBase + snapshotPathPrefix + key)
	if err != nil {
		t.Fatalf("fetch snapshot: %v", err)
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch snapshot: status %d err %v", resp.StatusCode, err)
	}
	if mutate != nil {
		frame = mutate(frame)
	}
	req, err := http.NewRequest(http.MethodPut, toBase+snapshotPathPrefix+key, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put snapshot: %v", err)
	}
	putResp.Body.Close()
	return putResp.StatusCode
}

// v1Snapshot returns the ghzQASM circuit's snapshot frame as a build on
// codec version 1 persisted it under Config{}, and its circuit key, which
// names the file in testdata/v1. Version 1 also carried each node's branch
// threshold, a generic-rule flag and the downstream/upstream masses.
func v1Snapshot(t *testing.T) (key string, frame []byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "v1", "*.wsnap"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one version-1 snapshot in testdata/v1, found %v (%v)", paths, err)
	}
	frame, err = os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(frame[4:]); v != 1 {
		t.Fatalf("%s claims codec version %d, want 1", paths[0], v)
	}
	return strings.TrimSuffix(filepath.Base(paths[0]), ".wsnap"), frame
}

// TestSnapshotShippingEndToEnd: a snapshot frozen on daemon A is fetched
// over the wire, installed on cold daemon B, and B then serves the circuit
// warm — identical counts, zero strong simulations of its own.
func TestSnapshotShippingEndToEnd(t *testing.T) {
	srvA, baseA := startServer(t, Config{})
	srvB, baseB := startServer(t, Config{})

	body := map[string]any{"qasm": ghzQASM, "shots": 256, "seed": uint64(7)}
	var cold sampleResult
	if status, _ := post(t, baseA, body, &cold); status != http.StatusOK {
		t.Fatalf("cold sample on A: status %d", status)
	}
	key := cold.CircuitKey

	// B is cold: the shipping GET 404s there.
	resp, err := http.Get(baseB + snapshotPathPrefix + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET on cold daemon: status %d, want 404", resp.StatusCode)
	}

	if status := shipSnapshot(t, baseA, baseB, key, nil); status != http.StatusNoContent {
		t.Fatalf("PUT: status %d, want 204", status)
	}

	var warm sampleResult
	if status, _ := post(t, baseB, body, &warm); status != http.StatusOK {
		t.Fatalf("sample on B: status %d", status)
	}
	if !warm.Cached {
		t.Fatal("B served the shipped circuit cold")
	}
	if !reflect.DeepEqual(cold.Counts, warm.Counts) {
		t.Fatalf("shipped snapshot sampled differently:\nA: %v\nB: %v", cold.Counts, warm.Counts)
	}
	if sims := srvB.Metrics().Counter("serve_sims_total").Value(); sims != 0 {
		t.Fatalf("B ran %d strong simulations, want 0", sims)
	}
	if got := srvA.Metrics().Counter("serve_snapshot_served_total").Value(); got != 1 {
		t.Fatalf("A served %d frames, want 1", got)
	}
	if got := srvB.Metrics().Counter("serve_snapshot_installs_total").Value(); got != 1 {
		t.Fatalf("B installed %d frames, want 1", got)
	}
}

// TestSnapshotPutRejectsDamageAndVersionSkew: the PUT integrity ladder
// separates corruption (400) from a mixed-version peer (409) — one on the
// retired codec version 1 or on a newer one — and none pollutes the cache.
func TestSnapshotPutRejectsDamageAndVersionSkew(t *testing.T) {
	srvA, baseA := startServer(t, Config{})
	srvB, baseB := startServer(t, Config{})

	body := map[string]any{"qasm": ghzQASM, "shots": 16}
	var cold sampleResult
	if status, _ := post(t, baseA, body, &cold); status != http.StatusOK {
		t.Fatalf("cold sample on A: status %d", status)
	}
	key := cold.CircuitKey
	v1Key, v1 := v1Snapshot(t)
	if v1Key != key {
		t.Fatalf("version-1 frame is for key %s, want %s", v1Key, key)
	}

	crcTable := crc64.MakeTable(crc64.ECMA)
	cases := map[string]struct {
		mutate func([]byte) []byte
		status int
	}{
		"bit rot": {
			mutate: func(b []byte) []byte { b[40] ^= 0x10; return b },
			status: http.StatusBadRequest,
		},
		"truncated": {
			mutate: func(b []byte) []byte { return b[:len(b)-3] },
			status: http.StatusBadRequest,
		},
		"retired codec version 1": {
			mutate: func([]byte) []byte { return v1 },
			status: http.StatusConflict,
		},
		"newer codec version": {
			mutate: func(b []byte) []byte {
				payload := b[:len(b)-8]
				binary.LittleEndian.PutUint16(payload[4:], 99)
				var trailer [8]byte
				binary.LittleEndian.PutUint64(trailer[:], crc64.Checksum(payload, crcTable))
				return append(payload, trailer[:]...)
			},
			status: http.StatusConflict,
		},
	}
	for name, tc := range cases {
		if status := shipSnapshot(t, baseA, baseB, key, tc.mutate); status != tc.status {
			t.Errorf("%s: PUT status %d, want %d", name, status, tc.status)
		}
	}
	if got := srvB.Metrics().Counter("serve_snapshot_rejects_total").Value(); got != uint64(len(cases)) {
		t.Errorf("B rejected %d frames, want %d", got, len(cases))
	}
	// Nothing was installed; B still simulates on demand.
	var onB sampleResult
	if status, _ := post(t, baseB, body, &onB); status != http.StatusOK || onB.Cached {
		t.Fatalf("B after rejected ships: status %d cached %v, want cold 200", status, onB.Cached)
	}
	_ = srvA
}

func TestSnapshotKeyValidation(t *testing.T) {
	_, base := startServer(t, Config{})
	for _, path := range []string{
		snapshotPathPrefix,                  // empty key
		snapshotPathPrefix + "a/b",          // path escape
		snapshotPathPrefix + "k.corrupt",    // dotted
		snapshotPathPrefix + "%2e%2e%2fetc", // encoded escape
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 400 (or 404 for unroutable)", path, resp.StatusCode)
		}
	}
}

// TestKeyMemoMatchesServedKey: the router-side key function agrees with
// the key the replica derives from a full request — the invariant that makes
// ring routing and replica caching name the same owner — and resolves a
// repeated spelling once.
func TestKeyMemoMatchesServedKey(t *testing.T) {
	_, base := startServer(t, Config{})
	body := map[string]any{"qasm": ghzQASM, "shots": 8, "workers": 1}
	var resp sampleResult
	if status, _ := post(t, base, body, &resp); status != http.StatusOK {
		t.Fatalf("sample: status %d", status)
	}
	raw, _ := json.Marshal(body)
	memo := NewKeyMemo(0, 1<<20)
	for i := 0; i < 3; i++ {
		key, err := memo.Key(raw)
		if err != nil {
			t.Fatalf("KeyMemo.Key: %v", err)
		}
		if key != resp.CircuitKey {
			t.Fatalf("KeyMemo.Key = %s, server used %s", key, resp.CircuitKey)
		}
	}
	if hits, misses := memo.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("three keys of one spelling: %d hits, %d misses, want 2 and 1", hits, misses)
	}
	for _, bad := range []string{`{"shots":4}`, `not json`, `{"circuit":"ghz_3"} {}`, `{"circuit":"ghz_3","frob":1}`} {
		if _, err := memo.Key([]byte(bad)); err == nil {
			t.Fatalf("KeyMemo.Key accepted %s", bad)
		}
	}
	key := resp.CircuitKey
	// Wire format check: the shipped frame decodes with the snapstore codec.
	get, err := http.Get(base + snapshotPathPrefix + key)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if _, err := snapstore.Decode(frame); err != nil {
		t.Fatalf("shipped frame fails snapstore.Decode: %v", err)
	}
}
