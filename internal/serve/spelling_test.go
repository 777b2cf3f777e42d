package serve

// Spelling-memo tests: a remembered spelling answers without resolving or
// hashing, with the counts a resolved request draws; spellings of one
// circuit share one entry; eviction, the per-entry cap and the byte charge
// keep the memo inside the cache; invalid spellings are never remembered;
// a job chunk still checks its pinned key on a memo hit, and a QASM job's
// chunks after the first hit the memo; two escapings of one source share
// one entry; and a job submit reads the memo without counting a cache hit.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/circuit/qasm"
	"weaksim/internal/core"
	"weaksim/internal/job"
	"weaksim/internal/obs"
)

// checkMemo asserts the memo's invariants: every remembered spelling maps
// to a resident entry that lists it, every resident entry's spellings are
// remembered, at most maxSpellings of them, and the cache's bytes are its
// entries' bytes.
func checkMemo(t *testing.T, c *snapCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	listed, bytes := 0, int64(0)
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*entry)
		bytes += ent.bytes
		if len(ent.spellings) > maxSpellings {
			t.Errorf("entry %s keeps %d spellings, cap %d", ent.key, len(ent.spellings), maxSpellings)
		}
		for _, sp := range ent.spellings {
			if c.spellings[sp.kind][sp.tok] != el {
				t.Errorf("entry %s lists a spelling the memo maps elsewhere", ent.key)
			}
		}
		listed += len(ent.spellings)
	}
	if n := len(c.spellings[memoQASM]) + len(c.spellings[memoName]); listed != n {
		t.Errorf("memo holds %d spellings, entries list %d", n, listed)
	}
	if bytes != c.bytes {
		t.Errorf("cache accounts %d bytes, its entries %d", c.bytes, bytes)
	}
}

func memoLen(c *snapCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spellings[memoQASM]) + len(c.spellings[memoName])
}

// qasmSpelling and nameSpelling spell a circuit as encoding/json writes a
// request's "qasm" or "circuit" member.
func qasmSpelling(src string) spelling  { return spelling{qasm: quote(src)} }
func nameSpelling(name string) spelling { return spelling{circuit: quote(name)} }

// charge is what remembering sp charges its entry.
func charge(sp spelling) int64 {
	tok, _, _ := sp.memoKey()
	return spellingBytes(len(tok))
}

// TestSpellingHitResolvesNothing: the second request for qft_32's QASM is
// answered from the memo with the first one's counts, and a memo hit
// allocates nothing: no unescape, no parse, no validation, no key. Reading
// and scanning the body into its pooled buffer and the probe allocate at
// most 4 times together.
func TestSpellingHitResolvesNothing(t *testing.T) {
	srv, base := startServer(t, Config{})
	qft, err := algo.Generate("qft_32")
	if err != nil {
		t.Fatal(err)
	}
	src, err := qasm.Write(qft)
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{"qasm": src, "shots": 1024, "seed": 5}
	var miss, hit sampleResult
	if code, _ := post(t, base, body, &miss); code != http.StatusOK || miss.Cached {
		t.Fatalf("first request: status %d cached %v", code, miss.Cached)
	}
	if code, _ := post(t, base, body, &hit); code != http.StatusOK || !hit.Cached {
		t.Fatalf("second request: status %d cached %v", code, hit.Cached)
	}
	if !reflect.DeepEqual(hit.Counts, miss.Counts) || hit.CircuitKey != miss.CircuitKey {
		t.Fatal("a memo hit answered differently from the request that resolved the circuit")
	}
	if st := srv.cache.stats(); st.SpellingHits != 1 || st.SpellingMisses != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want one spelling miss then one spelling hit, one cache miss then one hit", st)
	}

	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(raw)
	r := httptest.NewRequest(http.MethodPost, "/v1/sample", nil)
	r.Body, r.ContentLength = io.NopCloser(rd), int64(len(raw))
	parse := func() (sampleRequest, *[]byte) {
		rd.Reset(raw)
		req, buf, err := srv.parseRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		return req, buf
	}
	req, buf := parse()
	spelled := req.spelling
	if key, ent, circ, err := srv.keyFor(nil, nil, spelled, srv.cache.getBySpelling); err != nil || ent == nil || circ != nil || key != miss.CircuitKey {
		t.Fatalf("keyFor on a remembered spelling: key %s entry %v circuit %v err %v", key, ent != nil, circ != nil, err)
	}
	if a := testing.AllocsPerRun(20, func() { _, _, _, _ = srv.keyFor(nil, nil, spelled, srv.cache.getBySpelling) }); a != 0 {
		t.Errorf("a memo hit allocates %v times, want 0", a)
	}
	putBody(buf)
	both := testing.AllocsPerRun(20, func() {
		req, buf := parse()
		if _, ok := srv.cache.getBySpelling(req.spelling); !ok {
			t.Fatal("spelling forgotten")
		}
		putBody(buf)
	})
	if both > 4 {
		t.Errorf("read, scan and memo hit allocate %v times, want at most 4", both)
	}
	t.Logf("qft_32 as QASM (%d bytes): read, scan and memo hit %v allocations", len(raw), both)
}

// TestSpellingVariantsShareOneEntry: a benchmark name, its QASM and the
// QASM with extra whitespace are three spellings of one circuit: one strong
// simulation, one entry holding all three, and the same counts.
func TestSpellingVariantsShareOneEntry(t *testing.T) {
	srv, base := startServer(t, Config{})
	qft, err := algo.Generate("qft_8")
	if err != nil {
		t.Fatal(err)
	}
	src, err := qasm.Write(qft)
	if err != nil {
		t.Fatal(err)
	}
	spellings := []map[string]any{
		{"circuit": "qft_8"},
		{"qasm": src},
		{"qasm": "\n" + strings.ReplaceAll(src, ";\n", ";\n\n  ")},
	}
	var first sampleResult
	for round := 0; round < 2; round++ {
		for i, body := range spellings {
			body["shots"], body["seed"] = 2048, 3
			var got sampleResult
			if code, _ := post(t, base, body, &got); code != http.StatusOK {
				t.Fatalf("round %d spelling %d: status %d", round, i, code)
			}
			if round == 0 && i == 0 {
				first = got
				continue
			}
			if !got.Cached || got.CircuitKey != first.CircuitKey || !reflect.DeepEqual(got.Counts, first.Counts) {
				t.Fatalf("round %d spelling %d: cached %v key %s, want the first answer (key %s)",
					round, i, got.Cached, got.CircuitKey, first.CircuitKey)
			}
		}
	}
	st := srv.cache.stats()
	if sims := srv.pool.sims.Value(); sims != 1 || st.Entries != 1 {
		t.Fatalf("%d simulations into %d entries, want 1 into 1", sims, st.Entries)
	}
	if st.SpellingMisses != 3 || st.SpellingHits != 3 {
		t.Fatalf("spelling misses %d hits %d, want 3 and 3", st.SpellingMisses, st.SpellingHits)
	}
	if n := memoLen(srv.cache); n != 3 {
		t.Fatalf("memo holds %d spellings, want 3", n)
	}
	checkMemo(t, srv.cache)
}

// TestSpellingEvictionForgets: an evicted entry takes its spellings with
// it, and the next request for the circuit simulates it again and answers
// as the first one did.
func TestSpellingEvictionForgets(t *testing.T) {
	// One byte of budget: every admission evicts the entry before it.
	srv, base := startServer(t, Config{CacheBytes: 1})
	a := map[string]any{"circuit": "ghz_3", "shots": 512, "seed": 4}
	var first, again sampleResult
	if code, _ := post(t, base, a, &first); code != http.StatusOK || first.Cached {
		t.Fatalf("first request: status %d cached %v", code, first.Cached)
	}
	if code, _ := post(t, base, map[string]any{"circuit": "qft_6"}, nil); code != http.StatusOK {
		t.Fatalf("evicting request: status %d", code)
	}
	if n := memoLen(srv.cache); n != 1 {
		t.Fatalf("memo holds %d spellings after the eviction, want only qft_6's", n)
	}
	checkMemo(t, srv.cache)
	if code, _ := post(t, base, a, &again); code != http.StatusOK || again.Cached {
		t.Fatalf("request after eviction: status %d cached %v, want a fresh simulation", code, again.Cached)
	}
	if !reflect.DeepEqual(again.Counts, first.Counts) || again.CircuitKey != first.CircuitKey {
		t.Fatal("the re-simulated circuit answered differently")
	}
	if sims, st := srv.pool.sims.Value(), srv.cache.stats(); sims != 3 || st.Evictions != 2 || st.SpellingHits != 0 {
		t.Fatalf("sims %d evictions %d spelling hits %d, want 3, 2, 0", sims, st.Evictions, st.SpellingHits)
	}
	checkMemo(t, srv.cache)
}

// TestSpellingCapAndCharge: an entry keeps its maxSpellings most recent
// spellings, charged to its bytes; a spelling that pushes the cache past
// its budget evicts the least recently used entry; an entry no longer
// resident remembers nothing; and QASM longer than maxSpellingBytes is
// never remembered.
func TestSpellingCapAndCharge(t *testing.T) {
	c := newSnapCache(1000, obs.NewRegistry())
	ent := testEntry(t, "k", 100)
	c.insert(ent)
	var sps []spelling
	for i := 0; i < maxSpellings+2; i++ {
		sp := qasmSpelling(strings.Repeat(" ", i) + "OPENQASM 2.0;")
		c.remember(sp, ent)
		c.remember(sp, ent) // a second time changes nothing
		sps = append(sps, sp)
	}
	want := int64(100)
	for i, sp := range sps {
		_, ok := c.getBySpelling(sp)
		if kept := i >= 2; ok != kept {
			t.Errorf("spelling %d remembered %v, want %v", i, ok, kept)
		}
		if i >= 2 {
			want += charge(sp)
		}
	}
	if ent.bytes != want || c.stats().Bytes != want {
		t.Fatalf("entry charges %d bytes, cache %d, want %d", ent.bytes, c.stats().Bytes, want)
	}
	checkMemo(t, c)

	other := testEntry(t, "other", 100)
	c.insert(other)
	big := nameSpelling(strings.Repeat("y", 800))
	c.remember(big, other)
	if st := c.stats(); st.Entries != 1 || st.Evictions != 1 || st.Bytes != 100+charge(big) {
		t.Fatalf("after charging an 800-byte spelling: %+v, want k evicted", st)
	}
	if _, ok := c.getBySpelling(sps[len(sps)-1]); ok {
		t.Fatal("an evicted entry's spelling still answers")
	}
	c.remember(nameSpelling("late"), ent)
	if _, ok := c.getBySpelling(nameSpelling("late")); ok {
		t.Fatal("a spelling was remembered on an evicted entry")
	}
	checkMemo(t, c)

	// The memo takes tokens up to maxSpellingBytes, quotes included, and
	// never a longer one.
	c = newSnapCache(0, obs.NewRegistry())
	ent = testEntry(t, "k", 100)
	c.insert(ent)
	longest := qasmSpelling(strings.Repeat(" ", maxSpellingBytes-2))
	tooLong := qasmSpelling(strings.Repeat(" ", maxSpellingBytes-1))
	c.remember(longest, ent)
	c.remember(tooLong, ent)
	if _, ok := c.getBySpelling(longest); !ok {
		t.Error("a spelling of maxSpellingBytes was not remembered")
	}
	if _, ok := c.getBySpelling(tooLong); ok {
		t.Error("a spelling longer than maxSpellingBytes was remembered")
	}
	if st := c.stats(); st.SpellingHits != 1 || st.SpellingMisses != 1 || st.Bytes != 100+charge(longest) {
		t.Fatalf("stats %+v, want one hit, one miss and only the shorter spelling charged", st)
	}
	checkMemo(t, c)
}

// TestSpellingInvalidNeverRemembered: bodies refused for their circuit or
// their parameters are refused every time and leave the memo empty, and a
// job whose circuit is wider than this server's MaxQubits runs without
// its spelling being remembered.
func TestSpellingInvalidNeverRemembered(t *testing.T) {
	srv, base := startServer(t, Config{MaxQubits: 4, MaxShots: 1000})
	bodies := []string{
		`{"circuit":"nope_3"}`,
		`{"qasm":"OPENQASM 2.0;\nqreg q[1];\nfrob q[0];"}`,
		`{"qasm":"OPENQASM 2.0;\nqreg q[1];\nrx(1/0) q[0];"}`,
		`{"circuit":"ghz_8"}`,
		`{"qasm":"OPENQASM 2.0;","circuit":"ghz_2"}`,
		`{"circuit":"ghz_2","shots":100000}`,
	}
	for _, body := range bodies {
		for round := 0; round < 2; round++ {
			resp, err := http.Post(base+"/v1/sample", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s (round %d): status %d, want 400", body, round, resp.StatusCode)
			}
		}
	}
	if n := memoLen(srv.cache); n != 0 {
		t.Fatalf("memo holds %d spellings after only invalid requests", n)
	}
	wide, err := algo.Generate("ghz_8")
	if err != nil {
		t.Fatal(err)
	}
	spec := job.Spec{Circuit: "ghz_8", Key: CircuitKey(wide, srv.cfg.Norm, false)}
	if _, err := srv.jobSnapshot(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if n := memoLen(srv.cache); n != 0 {
		t.Fatalf("memo remembered a spelling wider than MaxQubits")
	}
}

// TestJobConfigChangedWithWarmMemo: a chunk whose spec pins a key this
// server does not compute fails config_changed even when its spelling is
// answered from the memo.
func TestJobConfigChangedWithWarmMemo(t *testing.T) {
	srv, base := startServer(t, Config{})
	var resp sampleResult
	if code, _ := post(t, base, map[string]any{"circuit": "ghz_3"}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	spec := job.Spec{Circuit: "ghz_3", Key: resp.CircuitKey}
	if _, err := srv.jobSnapshot(context.Background(), spec); err != nil {
		t.Fatalf("chunk with the served key: %v", err)
	}
	spec.Key = strings.Repeat("0", len(resp.CircuitKey))
	_, err := srv.jobSnapshot(context.Background(), spec)
	var ve *job.VerdictError
	if !errors.As(err, &ve) || ve.Code != "config_changed" {
		t.Fatalf("chunk with a drifted key: %v, want a config_changed verdict", err)
	}
	if st := srv.cache.stats(); st.SpellingHits != 2 || st.SpellingMisses != 1 {
		t.Fatalf("spelling hits %d misses %d, want both chunks answered from the memo", st.SpellingHits, st.SpellingMisses)
	}
}

// TestSpellingParallelHitsAndEviction races memo probes against
// admissions that evict and against concurrent remembers: a hit always
// returns the entry its spelling resolved to, and the memo's invariants
// hold afterwards. Run under -race.
func TestSpellingParallelHitsAndEviction(t *testing.T) {
	c := newSnapCache(300, obs.NewRegistry())
	base := testEntry(t, "base", 0)
	const circuits = 8
	sp := func(i int) spelling { return nameSpelling("c" + strconv.Itoa(i)) }
	key := func(i int) string { return "k" + strconv.Itoa(i) }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < circuits; i++ {
					if ent, ok := c.getBySpelling(sp(i)); ok && ent.key != key(i) {
						t.Errorf("spelling %d answered with entry %s", i, ent.key)
						return
					}
				}
				_ = c.stats()
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for n := 0; n < 2000; n++ {
				i := (n + w*3) % circuits
				ent := &entry{key: key(i), sampler: base.sampler, qubits: base.qubits, bytes: 100}
				c.insert(ent)
				c.remember(sp(i), ent)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	checkMemo(t, c)
	if st := c.stats(); st.Evictions == 0 || st.SpellingHits == 0 {
		t.Fatalf("stats %+v: the race never evicted or never hit", st)
	}
}

// TestJobSubmitCountsNoCacheHit: a submit whose spelling the memo holds
// takes its key from the memo without counting a cache hit or a spelling
// probe, and without moving its entry in the LRU; only the job's chunks,
// which fetch the snapshot, count.
func TestJobSubmitCountsNoCacheHit(t *testing.T) {
	srv, base := startServer(t, Config{})
	for _, name := range []string{"ghz_3", "ghz_4"} {
		if code, _ := post(t, base, map[string]any{"circuit": name}, nil); code != http.StatusOK {
			t.Fatalf("sample %s: status %d", name, code)
		}
	}
	src := nameSpelling("ghz_3")
	ent, ok := srv.cache.spelled(src)
	if !ok {
		t.Fatal("ghz_3's spelling was not remembered")
	}
	before := srv.cache.stats()
	if _, _, _, err := srv.keyFor(nil, nil, src, srv.cache.spelled); err != nil {
		t.Fatal(err)
	}
	srv.cache.mu.Lock()
	back := srv.cache.ll.Back().Value.(*entry)
	srv.cache.mu.Unlock()
	if back != ent {
		t.Fatal("a non-counting probe moved its entry to the front of the LRU")
	}
	if st := srv.cache.stats(); st != before {
		t.Fatalf("a non-counting probe changed the stats: %+v, then %+v", before, st)
	}

	var st job.Status
	if code, _ := postJSON(t, base, "/v1/jobs", map[string]any{"circuit": "ghz_3", "shots": 100}, &st); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, base, st.ID, func(s job.Status) bool { return s.State == job.StateCompleted })
	after := srv.cache.stats()
	chunks := uint64(done.ChunksDone)
	if after.Hits-before.Hits != chunks || after.SpellingHits-before.SpellingHits != chunks ||
		after.Misses != before.Misses || after.SpellingMisses != before.SpellingMisses {
		t.Fatalf("a job of %d chunks moved the stats from %+v to %+v, want one cache and spelling hit per chunk and none for the submit",
			chunks, before, after)
	}
}

// postRaw posts body as it is and decodes a 200 answer into out.
func postRaw(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestSpellingEscapingsShareOneEntry: the memo keys a spelling by its raw
// token, so one QASM source escaped two ways (\n and \u000a) is two
// spellings, each resolved once, of one entry with one key and one strong
// simulation; each answers from the memo when it repeats.
func TestSpellingEscapingsShareOneEntry(t *testing.T) {
	srv, base := startServer(t, Config{})
	src := "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[3];\\nh q[0];\\ncx q[0],q[1];\\ncx q[1],q[2];\\n"
	bodies := []string{
		`{"qasm":"` + src + `","shots":512,"seed":2}`,
		`{"qasm":"` + strings.ReplaceAll(src, `\n`, `\u000a`) + `","shots":512,"seed":2}`,
	}
	var first sampleResult
	for round := 0; round < 2; round++ {
		for i, body := range bodies {
			var got sampleResult
			if code := postRaw(t, base+"/v1/sample", body, &got); code != http.StatusOK {
				t.Fatalf("round %d escaping %d: status %d", round, i, code)
			}
			if round == 0 && i == 0 {
				first = got
				continue
			}
			if !got.Cached || got.CircuitKey != first.CircuitKey || !reflect.DeepEqual(got.Counts, first.Counts) {
				t.Fatalf("round %d escaping %d: cached %v key %s, want the first answer (key %s)",
					round, i, got.Cached, got.CircuitKey, first.CircuitKey)
			}
		}
	}
	st := srv.cache.stats()
	if sims := srv.pool.sims.Value(); sims != 1 || st.Entries != 1 || memoLen(srv.cache) != 2 {
		t.Fatalf("%d simulations, %d entries, %d spellings; want 1, 1 and 2", sims, st.Entries, memoLen(srv.cache))
	}
	if st.SpellingMisses != 2 || st.SpellingHits != 2 {
		t.Fatalf("spelling misses %d hits %d, want 2 and 2", st.SpellingMisses, st.SpellingHits)
	}
	checkMemo(t, srv.cache)
}

// TestJobChunksHitTheMemo: a QASM job's chunks probe the memo with one
// canonical escaping of the spec's source, whatever escaping the submit
// used, so the first chunk resolves the circuit and every chunk after it
// is a spelling hit.
func TestJobChunksHitTheMemo(t *testing.T) {
	srv, base := startServer(t, Config{JobWorkers: 1})
	src := strings.ReplaceAll(string(quote(ghzQASM)), `\n`, `\u000a`)
	body := `{"qasm":` + src + `,"shots":` + strconv.Itoa(4*core.ChunkShots) + `,"seed":3}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st job.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	done := waitJob(t, base, st.ID, func(s job.Status) bool { return s.State == job.StateCompleted })
	stats := srv.cache.stats()
	if done.ChunksDone != 4 || stats.SpellingMisses != 1 || stats.SpellingHits != 3 {
		t.Fatalf("%d chunks: spelling misses %d hits %d, want 4 chunks, one miss and three hits",
			done.ChunksDone, stats.SpellingMisses, stats.SpellingHits)
	}
}
