package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/circuit/qasm"
	"weaksim/internal/core"
	"weaksim/internal/job"
	"weaksim/internal/obs"
)

// legacySample is the /v1/sample body as encoding/json wrote it when counts
// were a map[string]int: the wire format the counts writer must reproduce
// byte for byte. Trace is kept raw, so a debug echo re-encodes verbatim.
type legacySample struct {
	Counts        map[string]int  `json:"counts"`
	Qubits        int             `json:"qubits"`
	Shots         int             `json:"shots"`
	Seed          uint64          `json:"seed"`
	Workers       int             `json:"workers"`
	Cached        bool            `json:"cached"`
	CircuitKey    string          `json:"circuit_key"`
	SnapshotNodes int             `json:"snapshot_nodes"`
	SimNS         int64           `json:"sim_ns"`
	SampleNS      int64           `json:"sample_ns"`
	Trace         json.RawMessage `json:"trace,omitempty"`
}

// legacyJobResult is the /v1/jobs/{id}/result body in the same old shape.
type legacyJobResult struct {
	JobID  string         `json:"job_id"`
	Counts map[string]int `json:"counts"`
	Qubits int            `json:"qubits"`
	Shots  int            `json:"shots"`
	Seed   uint64         `json:"seed"`
}

// legacyBytes is what json.NewEncoder(w).Encode(v) writes, as writeJSON did.
func legacyBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceCounts is the answer to (circuit, seed, shots) over the
// server's cached snapshot, merged from core.TallyChunk's chunks, chunk i
// from rng.Stream(seed, i), and keyed by bitstring through the map
// accessors: independent of the server's batching, worker pool and counts
// writer, whose encoding the wire-format tests pin.
func referenceCounts(t testing.TB, srv *Server, name string, seed uint64, shots int) map[string]int {
	t.Helper()
	circ, err := algo.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	ent, _, err := srv.lookup(context.Background(), CircuitKey(circ, srv.cfg.Norm, false), circ)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for chunk := 0; chunk*core.ChunkShots < shots; chunk++ {
		part, err := core.TallyChunk(context.Background(), ent.sampler, seed, chunk, min(core.ChunkShots, shots-chunk*core.ChunkShots))
		if err != nil {
			t.Fatal(err)
		}
		core.MergeCounts(counts, part.Map())
	}
	return core.BitstringCounts(counts, circ.NQubits)
}

// TestSampleResponseWireFormat pins the /v1/sample body: byte for byte what
// encoding/json wrote for the old map[string]int counts, on the dense tally
// (70,000 shots over 16 qubits), one run (1024 shots) and two runs that
// share both their outcomes (70,000 shots of ghz_24), at 1, 2 and 4
// workers, with and without the ?debug=1 trace echo.
func TestSampleResponseWireFormat(t *testing.T) {
	srv, base := startServer(t, Config{MaxSampleWorkers: 4})
	for _, tc := range []struct {
		circuit string
		shots   int
	}{{"qft_16", 70000}, {"qft_16", 1024}, {"ghz_3", 256}, {"ghz_24", 70000}} {
		want := referenceCounts(t, srv, tc.circuit, 7, tc.shots)
		for _, workers := range []int{1, 2, 4} {
			for _, debug := range []string{"", "?debug=1"} {
				name := fmt.Sprintf("%s/%d shots/workers=%d%s", tc.circuit, tc.shots, workers, debug)
				body := fmt.Sprintf(`{"circuit":%q,"shots":%d,"seed":7,"workers":%d}`, tc.circuit, tc.shots, workers)
				resp, err := http.Post(base+"/v1/sample"+debug, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d, %v: %s", name, resp.StatusCode, err, raw)
				}
				var old legacySample
				if err := json.Unmarshal(raw, &old); err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				if (old.Trace != nil) != (debug != "") {
					t.Fatalf("%s: trace echo present = %v", name, old.Trace != nil)
				}
				old.Counts = want
				if exp := legacyBytes(t, old); !bytes.Equal(raw, exp) {
					t.Errorf("%s: body differs from the map[string]int encoding\n got %.300s\nwant %.300s", name, raw, exp)
				}
			}
		}
	}
}

// TestJobResultWireFormat: a job's result body is byte for byte the old
// map[string]int encoding, with the counts /v1/sample draws, for dense jobs
// and for ghz_24, whose four chunks' runs share both outcomes.
func TestJobResultWireFormat(t *testing.T) {
	srv, base := startServer(t, Config{})
	const shots = 3*core.ChunkShots + 100 // dense rule holds for the 16- and 3-qubit batches and each chunk
	for _, name := range []string{"qft_16", "ghz_3", "ghz_24"} {
		var st job.Status
		body := map[string]any{"circuit": name, "shots": shots, "seed": 5}
		if code, _ := postJSON(t, base, "/v1/jobs", body, &st); code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", name, code)
		}
		waitJob(t, base, st.ID, func(s job.Status) bool { return s.State == job.StateCompleted })
		resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", name, resp.StatusCode, err)
		}
		circ, _ := algo.Generate(name)
		exp := legacyBytes(t, legacyJobResult{
			JobID:  st.ID,
			Counts: referenceCounts(t, srv, name, 5, shots),
			Qubits: circ.NQubits,
			Shots:  shots,
			Seed:   5,
		})
		if !bytes.Equal(raw, exp) {
			t.Errorf("%s: body differs from the map[string]int encoding\n got %.300s\nwant %.300s", name, raw, exp)
		}
	}
}

// TestWriteJobResultMatchesWriteJSON: the streamed job result body is byte
// for byte what writeJSON writes for the same response, on a dense tally,
// on two runs that share outcomes and whose counts object passes
// countsFlushBytes, and on a job ID that JSON must escape.
func TestWriteJobResultMatchesWriteJSON(t *testing.T) {
	dense := core.NewTally(3, 100)
	dense.Add(core.TallyRun([]uint64{0, 5, 7}, []uint32{50, 30, 20}))
	var idx []uint64
	var n []uint32
	for i := uint64(0); i < 5000; i++ {
		idx, n = append(idx, i*197), append(n, uint32(i%7+1))
	}
	runs := core.TallyRun(idx, n)
	runs.Add(core.TallyRun(idx[1000:3000:3000], n[2000:4000:4000]))
	for _, tc := range []struct {
		id     string
		tally  *core.Tally
		qubits int
	}{
		{"j0123456789abcdef", dense, 3},
		{"j0123456789abcdef", runs, 20},
		{`j"<&>` + "\u2028", dense, 3},
	} {
		resp := &jobResultResponse{
			jobResultHead: jobResultHead{JobID: tc.id},
			Counts:        countsJSON{tc.tally, tc.qubits},
			jobResultMeta: jobResultMeta{Qubits: tc.qubits, Shots: 100, Seed: 1 << 63},
		}
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(want, http.StatusOK, resp)
		writeJobResult(got, resp)
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%q over %d qubits: streamed body differs from writeJSON's\n got %.300s\nwant %.300s",
				tc.id, tc.qubits, got.Body.Bytes(), want.Body.Bytes())
		}
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%q: status %d %q, want %d %q", tc.id, got.Code, got.Header().Get("Content-Type"),
				want.Code, want.Header().Get("Content-Type"))
		}
	}
	if b, _ := json.Marshal(countsJSON{runs, 20}); len(b) < countsFlushBytes {
		t.Fatalf("the runs' counts object is %d bytes, not past countsFlushBytes", len(b))
	}
}

// TestCountsEncodeAllocsPerResponse: encoding a response allocates a
// constant number of times, however many outcomes its counts hold.
func TestCountsEncodeAllocsPerResponse(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	circ, err := algo.Generate("qft_16")
	if err != nil {
		t.Fatal(err)
	}
	ent, _, err := srv.lookup(context.Background(), CircuitKey(circ, srv.cfg.Norm, false), circ)
	if err != nil {
		t.Fatal(err)
	}
	var allocs []float64
	for _, shots := range []int{1 << 10, 1 << 16, 1 << 18} {
		tally, err := core.TallyParallelContext(context.Background(), ent.sampler, 3, shots, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp := sampleResponse{Counts: countsJSON{tally, circ.NQubits},
			sampleMeta: sampleMeta{Qubits: circ.NQubits, Shots: shots}}
		w := &discardResponse{h: http.Header{}}
		allocs = append(allocs, testing.AllocsPerRun(5, func() { writeSample(w, &resp, nil) }))
	}
	for i, a := range allocs {
		if a > 8 {
			t.Errorf("encode allocates %v times per response (run %d), want O(1)", a, i)
		}
	}
	t.Logf("allocs per response at 2^10, 2^16, 2^18 shots: %v", allocs)
}

// warmAnswerBytesBound caps the heap bytes one warm 1,024-shot qft_16
// answer allocates, tally plus encode. Measured on linux/amd64 with Go
// 1.24: the map tally allocated 86,504 bytes per answer in 16 allocations
// (a map presized for 1,024 outcomes and a sorted copy of its keys, next to
// the 32 KiB encode buffer); one ascending run, presized to the 1,024
// outcomes a 1,024-shot chunk can hold, brings it to 53,663 bytes in 12.
const warmAnswerBytesBound = 56_000

// TestWarmAnswerBytes bounds the bytes a warm 1,024-shot qft_16 answer
// allocates: the tally of TallyParallelContext and writeSample's encode.
func TestWarmAnswerBytes(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	circ, err := algo.Generate("qft_16")
	if err != nil {
		t.Fatal(err)
	}
	ent, _, err := srv.lookup(context.Background(), CircuitKey(circ, srv.cfg.Norm, false), circ)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardResponse{h: http.Header{}}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tally, err := core.TallyParallelContext(context.Background(), ent.sampler, uint64(i), 1024, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			writeSample(w, &sampleResponse{Counts: countsJSON{tally, circ.NQubits},
				sampleMeta: sampleMeta{Qubits: circ.NQubits, Shots: 1024}}, nil)
		}
	})
	if got := res.AllocedBytesPerOp(); got > warmAnswerBytesBound {
		t.Errorf("a warm 1,024-shot qft_16 answer allocates %d bytes, want at most %d", got, warmAnswerBytesBound)
	}
	t.Logf("a warm 1,024-shot qft_16 answer allocates %d bytes in %d allocations", res.AllocedBytesPerOp(), res.AllocsPerOp())
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkSampleResponse is one warm 1M-shot /v1/sample answer end to end
// in-process: parse, cache hit, the two-worker walk and tally, and the
// encode, written to a discarding writer. qft_16's 65,536 equiprobable
// outcomes make the tally and the counts object as wide as a 16-qubit
// answer gets.
func BenchmarkSampleResponse(b *testing.B) {
	const shots = 1_000_000
	s := New(Config{MaxSampleWorkers: 2, DisableRequestTraces: true})
	defer s.Close()
	h := s.Handler()
	body := fmt.Sprintf(`{"circuit":"qft_16","shots":%d,"seed":11,"workers":2}`, shots)
	serve := func() {
		w := &discardResponse{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sample", strings.NewReader(body)))
	}
	serve() // simulate and cache qft_16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/shots, "ns/shot")
}

// warmSample returns a func that serves one 1,024-shot /v1/sample request
// for the named circuit, sent as QASM, through a Handler() with request
// traces and metrics on, to a discardResponse. It serves one first, so the
// circuit is simulated and cached and every later request is warm.
func warmSample(tb testing.TB, name string) func() {
	tb.Helper()
	s := New(Config{Metrics: obs.NewRegistry()})
	tb.Cleanup(func() { _ = s.Close() })
	h := s.Handler()
	circ, err := algo.Generate(name)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := qasm.Write(circ)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"qasm": src, "shots": 1024, "seed": 11})
	if err != nil {
		tb.Fatal(err)
	}
	serve := func() {
		w := &discardResponse{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sample", bytes.NewReader(body)))
	}
	serve()
	return serve
}

// BenchmarkWarmSample is one warm 1,024-shot /v1/sample answer to a QASM
// request through Handler(), with request traces and metrics on: the
// interactive request on a 16- or 32-qubit circuit, whose ~1,000 distinct
// outcomes a run tally holds. It reports allocs/op and B/op.
func BenchmarkWarmSample(b *testing.B) {
	for _, name := range []string{"qft_16", "qft_32"} {
		b.Run(name, func(b *testing.B) {
			serve := warmSample(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// warmRequestBytesBound caps the heap bytes one warm 1,024-shot QASM qft_16
// request allocates through Handler(): a quarter of the 65,079 bytes (69
// allocations) it took when every answer drew into a fresh 12 KiB run and
// encoded through a fresh 32 KiB buffer (BenchmarkWarmSample/qft_16,
// linux/amd64, Go 1.24). Drawing into the last answer's tally and encoding
// through a pooled buffer brings it to about 11,800 bytes in 64.
const warmRequestBytesBound = 65_079 / 4

// TestWarmRequestBytes bounds the bytes a warm 1,024-shot QASM qft_16
// request allocates end to end, parse to encode, averaged over 200
// requests, so the reuse of tally and encode storage across answers stays
// in place.
func TestWarmRequestBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts on purpose, so storage is not reliably reused")
	}
	serve := warmSample(t, "qft_16")
	serve() // fill the pools
	const requests = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range requests {
		serve()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / requests
	if got > warmRequestBytesBound {
		t.Errorf("a warm 1,024-shot qft_16 request allocates %d bytes, want at most %d", got, warmRequestBytesBound)
	}
	t.Logf("a warm 1,024-shot qft_16 request allocates %d bytes in %d allocations",
		got, (after.Mallocs-before.Mallocs)/requests)
}

// TestServeParallelWarmAnswers: warm answers served at once from several
// goroutines, which draw into and encode through storage earlier answers
// hand back, each hold their own counts: run tallies of one chunk (qft_16
// and qft_32 at 1,024 shots, qft_32 at 3,000), which are reused, next to a
// dense tally (ghz_3) and a two-chunk one (qft_32 at 70,000 shots), which
// are not.
func TestServeParallelWarmAnswers(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	type request struct {
		circuit     string
		shots, seed int
	}
	var reqs []request
	want := map[request]map[string]int{}
	for _, r := range []request{{"qft_16", 1024, 1}, {"qft_16", 1024, 2}, {"qft_32", 1024, 3},
		{"qft_32", 3000, 4}, {"qft_32", 70_000, 5}, {"ghz_3", 1024, 6}} {
		circ, err := algo.Generate(r.circuit)
		if err != nil {
			t.Fatal(err)
		}
		ent, _, err := srv.lookup(context.Background(), CircuitKey(circ, srv.cfg.Norm, false), circ)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := core.CountsParallel(ent.sampler, uint64(r.seed), r.shots, 1)
		if err != nil {
			t.Fatal(err)
		}
		reqs, want[r] = append(reqs, r), core.BitstringCounts(counts, circ.NQubits)
	}
	const goroutines, each = 4, 24
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				r := reqs[(g+i)%len(reqs)]
				body := fmt.Sprintf(`{"circuit":%q,"shots":%d,"seed":%d}`, r.circuit, r.shots, r.seed)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sample", strings.NewReader(body)))
				var resp sampleResult
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
					t.Errorf("%v: status %d, %v", r, w.Code, err)
					return
				}
				if !maps.Equal(resp.Counts, want[r]) {
					t.Errorf("%v: counts differ from CountsParallel's", r)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCountsBitstringWidths: the byte-at-a-time bitstring writer spells
// every register width as core.FormatBits does, whole bytes or not.
func TestCountsBitstringWidths(t *testing.T) {
	for _, qubits := range []int{1, 3, 7, 8, 9, 13, 16, 17, 31, 63, 64} {
		var idx []uint64
		var want strings.Builder
		want.WriteByte('{')
		for i, v := range []uint64{0, 1, 0x5a5a5a5a5a5a5a5a, 0xfedcba9876543210, ^uint64(0)} {
			v &= ^uint64(0) >> (64 - qubits)
			if len(idx) > 0 && v <= idx[len(idx)-1] {
				continue
			}
			idx = append(idx, v)
			if i > 0 {
				want.WriteByte(',')
			}
			fmt.Fprintf(&want, "%q:%d", core.FormatBits(v, qubits), len(idx))
		}
		want.WriteByte('}')
		n := make([]uint32, len(idx))
		for i := range n {
			n[i] = uint32(i + 1)
		}
		got, _ := countsJSON{core.TallyRun(idx, n), qubits}.stream(nil, nil)
		if string(got) != want.String() {
			t.Errorf("%d qubits: %s, want %s", qubits, got, want.String())
		}
	}
}
