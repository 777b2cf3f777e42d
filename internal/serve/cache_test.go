package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weaksim/internal/algo"
	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/obs"
)

// testEntry builds a real (tiny) cache entry by simulating a GHZ-like state,
// then overrides the accounted byte size so LRU tests can control pressure.
func testEntry(t testing.TB, key string, bytes int64) *entry {
	t.Helper()
	m := dd.New(2)
	e := m.ZeroState()
	snap, err := m.Freeze(e)
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	s, err := core.NewFrozenSampler(snap)
	if err != nil {
		t.Fatalf("sampler: %v", err)
	}
	return &entry{key: key, sampler: s, qubits: snap.Qubits(), bytes: bytes}
}

// directSubmit runs the compute synchronously on the calling goroutine —
// the simplest valid submit function for cache unit tests.
func directSubmit(c *snapCache, key string, compute computeFunc) func(*flight) error {
	return func(fl *flight) error {
		go c.run(key, fl, compute)
		return nil
	}
}

func TestCacheHitAndEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := newSnapCache(100, reg)
	mk := func(key string, bytes int64) {
		ent, _, err := c.getOrCompute(context.Background(), key,
			directSubmit(c, key, func() (*entry, error) { return testEntry(t, key, bytes), nil }))
		if err != nil {
			t.Fatalf("getOrCompute(%s): %v", key, err)
		}
		if ent == nil || ent.key != key {
			t.Fatalf("got wrong entry for %s", key)
		}
	}
	mk("a", 40)
	mk("b", 40)
	// Hit on "a" marks it most recently used.
	if _, cached, err := c.getOrCompute(context.Background(), "a", nil); err != nil || !cached {
		t.Fatalf("expected cache hit for a, cached=%v err=%v", cached, err)
	}
	// "c" pushes the budget to 120 > 100: the LRU victim is "b".
	mk("c", 40)
	st := c.stats()
	if st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("after eviction: entries=%d bytes=%d, want 2/80", st.Entries, st.Bytes)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}
	if _, cached, _ := c.getOrCompute(context.Background(), "b",
		directSubmit(c, "b", func() (*entry, error) { return testEntry(t, "b", 10), nil })); cached {
		t.Fatalf("b should have been evicted")
	}
}

func TestCacheOversizedEntryStillAdmitted(t *testing.T) {
	c := newSnapCache(100, obs.NewRegistry())
	ent, _, err := c.getOrCompute(context.Background(), "huge",
		directSubmit(c, "huge", func() (*entry, error) { return testEntry(t, "huge", 1000), nil }))
	if err != nil || ent == nil {
		t.Fatalf("oversized admission failed: %v", err)
	}
	if _, cached, _ := c.getOrCompute(context.Background(), "huge", nil); !cached {
		t.Fatalf("oversized entry was not cached")
	}
}

func TestCacheSingleFlightCoalesces(t *testing.T) {
	c := newSnapCache(1<<20, obs.NewRegistry())
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() (*entry, error) {
		computes.Add(1)
		<-release
		return testEntry(t, "k", 10), nil
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	hits := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, cached, err := c.getOrCompute(context.Background(), "k",
				directSubmit(c, "k", compute))
			errs[i], hits[i] = err, cached
		}(i)
	}
	// Let every goroutine either start the flight or join it, then release.
	for st := c.stats(); st.Misses+st.Coalesced < clients; st = c.stats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1 (single-flight)", n)
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if hits[i] {
			t.Fatalf("client %d reported a warm cache hit during the first flight", i)
		}
	}
	if _, cached, _ := c.getOrCompute(context.Background(), "k", nil); !cached {
		t.Fatalf("entry not cached after the flight")
	}
}

func TestCacheFailedComputeNotCached(t *testing.T) {
	c := newSnapCache(1<<20, obs.NewRegistry())
	boom := errors.New("sim exploded")
	_, _, err := c.getOrCompute(context.Background(), "k",
		directSubmit(c, "k", func() (*entry, error) { return nil, boom }))
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want %v", err, boom)
	}
	// The failure must not be cached: the next call re-computes and succeeds.
	ent, cached, err := c.getOrCompute(context.Background(), "k",
		directSubmit(c, "k", func() (*entry, error) { return testEntry(t, "k", 10), nil }))
	if err != nil || cached || ent == nil {
		t.Fatalf("retry after failure: ent=%v cached=%v err=%v", ent, cached, err)
	}
}

func TestCacheSubmitRejectionPropagates(t *testing.T) {
	c := newSnapCache(1<<20, obs.NewRegistry())
	_, _, err := c.getOrCompute(context.Background(), "k",
		func(*flight) error { return ErrQueueFull })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err=%v, want ErrQueueFull", err)
	}
	if st := c.stats(); st.InFlight != 0 {
		t.Fatalf("rejected flight leaked: in_flight=%d", st.InFlight)
	}
}

func TestCacheWaitHonorsContext(t *testing.T) {
	c := newSnapCache(1<<20, obs.NewRegistry())
	release := make(chan struct{})
	defer close(release)
	go func() {
		_, _, _ = c.getOrCompute(context.Background(), "k",
			directSubmit(c, "k", func() (*entry, error) {
				<-release
				return testEntry(t, "k", 10), nil
			}))
	}()
	for c.stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.getOrCompute(ctx, "k", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want DeadlineExceeded", err)
	}
}

func TestCacheStatsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := newSnapCache(1<<20, reg)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.getOrCompute(context.Background(), key,
			directSubmit(c, key, func() (*entry, error) { return testEntry(t, key, 10), nil })); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.getOrCompute(context.Background(), "k0", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if st.Misses != 3 || st.Hits != 5 || st.Entries != 3 {
		t.Fatalf("stats=%+v, want 3 misses / 5 hits / 3 entries", st)
	}
	if got := reg.Counter("serve_cache_hits_total").Value(); got != 5 {
		t.Fatalf("registry hits=%d, want 5", got)
	}
}

// TestCacheEntryCountsWalkTable: a cached circuit charges the cache its
// snapshot's node array, 48 bytes per node, plus its sampler's walk table,
// 16 bytes per node — 64 in all — so CacheBytes bounds both.
func TestCacheEntryCountsWalkTable(t *testing.T) {
	srv, _ := startServer(t, Config{})
	circ, err := algo.Generate("qft_6")
	if err != nil {
		t.Fatal(err)
	}
	ent, _, err := srv.lookup(context.Background(), CircuitKey(circ, srv.cfg.Norm, false), circ)
	if err != nil {
		t.Fatal(err)
	}
	snap := ent.sampler.Snapshot()
	if snap.Len() != 6 {
		t.Fatalf("qft_6 froze to %d nodes, want 6", snap.Len())
	}
	const want = 6 * 64
	if ent.bytes != want || snap.Bytes() != 6*48 {
		t.Fatalf("entry charges %d bytes (snapshot %d), want %d (snapshot %d + walk table %d)",
			ent.bytes, snap.Bytes(), want, 6*48, 6*16)
	}
	if got := srv.cache.stats().Bytes; got != want {
		t.Fatalf("cache holds %d bytes, want %d", got, want)
	}
}
