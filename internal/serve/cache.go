package serve

// Snapshot LRU with single-flight admission.
//
// The cache is the heart of sampling-as-a-service: the expensive operation
// (strong simulation + freeze) runs at most once per canonical circuit, and
// every subsequent request for the same circuit is served by lock-free walks
// over the cached immutable dd.Snapshot — zero DD work, no possibility of
// hitting the node budget (the paper's "compile once, sample in O(n)"
// economics, Hillmich/Markov/Wille DAC 2020, turned into a serving contract).
//
// Capacity is accounted in bytes, not entries: an entry charges its
// snapshot's node array (dd.Snapshot.Bytes, 48 B a node) plus its sampler's
// walk table (core.FrozenSampler.WalkBytes, 16 B a node), 64 B a node in
// all, plus the spellings it remembers (below). A cached supremacy state
// can be five orders of magnitude bigger than a GHZ state, so entry-count
// bounds would be meaningless. Eviction is strict LRU.
//
// Single-flight: concurrent misses on one key elect exactly one leader; the
// leader runs the compute function while every follower (and the leader)
// waits on the flight's done channel under its own request context. Failed
// computes are never cached — the flight propagates the error to everyone
// who joined it and the next request starts a fresh flight.
//
// Spelling memo: a request names its circuit by a spelling, the raw JSON
// string token of its QASM source or of a benchmark name, escapes as sent
// (front.go). Resolving a spelling to its key means unescaping it, parsing
// or generating the circuit, validating it and hashing it, which costs more
// than a warm 1024-shot answer. Once a spelling has resolved to a resident
// entry, the cache remembers it on that entry, so the next request with the
// same bytes is one map probe. The key depends on the spelling and the
// normalization, and the normalization is fixed for the process, so the
// spelling alone decides the entry. Two escapings of one source are two
// spellings of one entry. An entry keeps its maxSpellings most recently
// recorded spellings, each charged to the entry's bytes, and forgets them
// when it leaves the cache. A token of more than maxSpellingBytes is never
// remembered.

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/obs"
)

// entry is one cached frozen circuit: the immutable snapshot plus the
// ready-to-walk sampler over it (FrozenSampler is safe for any number of
// concurrent walkers, so one instance serves all requests).
type entry struct {
	key     string
	sampler *core.FrozenSampler
	qubits  int
	bytes   int64 // snapshot, walk table and spellings; guarded by snapCache.mu once cached
	simNS   int64 // wall-clock cost of the strong simulation + freeze that built it

	// spellings are the memo's spellings of this entry, oldest first,
	// guarded by snapCache.mu.
	spellings []memoSpelling
}

// memoSpelling is a remembered spelling: a token and the memo map that
// holds it.
type memoSpelling struct {
	tok  string
	kind int
}

// The memo's maps: QASM tokens and benchmark-name tokens are kept apart, so
// a name never answers for QASM that happens to read the same.
const (
	memoQASM = iota
	memoName
)

// maxSpellings bounds the spellings one entry remembers: the same circuit
// sent as QASM and by name, and a few whitespace variants, without letting
// one circuit's spellings grow without bound.
const maxSpellings = 4

// maxSpellingBytes bounds the tokens the memo takes. A longer token is
// neither probed nor remembered: it takes the resolving path alone, its
// bytes are never hashed under the cache lock, and no entry is charged more
// than maxSpellings of these. Parsing this much QASM takes about 0.8 ms.
const maxSpellingBytes = 64 << 10

// spellingOverhead is what a remembered spelling charges beyond its bytes:
// its memo map slot and its place in the entry's list.
const spellingOverhead = 64

// spellingBytes is what remembering a token of n bytes charges its entry.
func spellingBytes(n int) int64 {
	return int64(n + spellingOverhead)
}

// flight is one in-progress compute, shared by every request that missed on
// the same key while it ran.
type flight struct {
	done chan struct{} // closed when ent/err are final
	ent  *entry
	err  error

	// traceID/spans publish the leader's simulation spans (build/apply/
	// freeze) for coalesced waiters to adopt into their own traces as shared
	// spans: one freeze ran, N requests observed the same span IDs. Written
	// by the compute closure before the flight resolves; the close(done)
	// edge orders the writes before any waiter reads.
	traceID obs.TraceID
	spans   []obs.SpanRecord
}

// snapCache is the byte-bounded snapshot LRU. All methods are safe for
// concurrent use.
type snapCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List               // front = most recently used; values are *entry
	elems    map[string]*list.Element // key -> list element
	flights  map[string]*flight
	// spellings is the memo, one map per memoSpelling kind: a token that
	// resolved to a resident entry -> that entry's list element.
	spellings [2]map[string]*list.Element

	// Telemetry (nil-safe: a nil registry yields nil metrics whose methods
	// are no-ops).
	hits      *obs.Counter
	misses    *obs.Counter
	spHits    *obs.Counter
	spMisses  *obs.Counter
	coalesced *obs.Counter
	evictions *obs.Counter
	panics    *obs.Counter
	gBytes    *obs.Gauge
	gEntries  *obs.Gauge
	gFlights  *obs.Gauge
}

func newSnapCache(maxBytes int64, reg *obs.Registry) *snapCache {
	obs.RegisterHelp("serve_spelling_hits_total",
		"Requests whose circuit spelling the memo resolved without parsing, validating or hashing.")
	obs.RegisterHelp("serve_spelling_misses_total",
		"Requests whose circuit spelling the memo did not hold, so the circuit was resolved and hashed.")
	return &snapCache{
		maxBytes:  maxBytes,
		ll:        list.New(),
		elems:     make(map[string]*list.Element),
		flights:   make(map[string]*flight),
		spellings: [2]map[string]*list.Element{make(map[string]*list.Element), make(map[string]*list.Element)},
		hits:      reg.Counter("serve_cache_hits_total"),
		misses:    reg.Counter("serve_cache_misses_total"),
		spHits:    reg.Counter("serve_spelling_hits_total"),
		spMisses:  reg.Counter("serve_spelling_misses_total"),
		coalesced: reg.Counter("serve_cache_coalesced_total"),
		evictions: reg.Counter("serve_cache_evictions_total"),
		panics:    reg.Counter("serve_panics_total"),
		gBytes:    reg.Gauge("serve_cache_bytes"),
		gEntries:  reg.Gauge("serve_cache_entries"),
		gFlights:  reg.Gauge("serve_cache_flights"),
	}
}

// computeFunc builds the entry for a key on a cache miss. It runs on exactly
// one goroutine per flight (the admission queue's simulation worker).
type computeFunc func() (*entry, error)

// getOrCompute returns the entry for key, serving it from the cache when
// possible. On a miss the submit function is called exactly once (across all
// concurrent callers) to schedule compute; everyone then waits for the
// flight to finish or for their own ctx to expire — a context expiry
// abandons the wait, not the flight, so a slow client cannot kill a
// simulation other clients are waiting on.
//
// The returned bool reports whether the entry was served from the cache
// without joining a flight (a true cache hit).
func (c *snapCache) getOrCompute(ctx context.Context, key string, submit func(*flight) error) (*entry, bool, error) {
	c.mu.Lock()
	if el, ok := c.elems[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*entry)
		c.mu.Unlock()
		c.hits.Inc()
		return ent, true, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Inc()
		ent, cached, err := c.wait(ctx, fl)
		if err == nil {
			// The waiter keeps its own trace ID but references the leader's
			// simulation spans (Shared=true), so a debug=1 breakdown shows
			// which strong simulation this request rode on.
			obs.TraceFromContext(ctx).AdoptShared(fl.traceID, fl.spans)
		}
		return ent, cached, err
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.gFlights.Set(int64(len(c.flights)))
	c.mu.Unlock()
	c.misses.Inc()

	if err := submit(fl); err != nil {
		// The admission queue rejected the job (queue full / draining): the
		// flight never ran. Resolve it with the rejection so concurrent
		// joiners are released, and clear it so the next request retries.
		c.finish(key, fl, nil, err)
		return nil, false, err
	}
	return c.wait(ctx, fl)
}

// getBySpelling returns the entry a remembered spelling resolved to. A hit
// is a cache hit: it moves the entry to the front and counts in
// serve_cache_hits_total as well as serve_spelling_hits_total.
func (c *snapCache) getBySpelling(sp spelling) (*entry, bool) {
	var ent *entry
	if tok, kind, ok := sp.memoKey(); ok && len(tok) <= maxSpellingBytes {
		c.mu.Lock()
		if el, ok := c.spellings[kind][string(tok)]; ok {
			c.ll.MoveToFront(el)
			ent = el.Value.(*entry)
		}
		c.mu.Unlock()
	}
	if ent == nil {
		c.spMisses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.spHits.Inc()
	return ent, true
}

// spelled is getBySpelling that counts nothing and leaves the LRU order as
// it is, for a caller that only needs the key, not the snapshot.
func (c *snapCache) spelled(sp spelling) (*entry, bool) {
	tok, kind, ok := sp.memoKey()
	if !ok || len(tok) > maxSpellingBytes {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.spellings[kind][string(tok)]; ok {
		return el.Value.(*entry), true
	}
	return nil, false
}

// remember records that sp resolved to ent, unless ent has left the cache
// since it was looked up, sp is already remembered, sp does not name
// exactly one source or its token is longer than maxSpellingBytes. Past
// maxSpellings the entry forgets its oldest spelling. Callers remember only
// spellings that passed every check a request makes of its circuit.
func (c *snapCache) remember(sp spelling, ent *entry) {
	tok, kind, ok := sp.memoKey()
	if !ok || len(tok) > maxSpellingBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.elems[ent.key]
	if !ok || el.Value.(*entry) != ent {
		return
	}
	// Store first and see whether the memo grew, which hashes the token
	// once: a spelling already remembered maps to el already, since it
	// resolves to ent's key and the entry it was remembered on is resident.
	memo := c.spellings[kind]
	n := len(memo)
	key := string(tok)
	memo[key] = el
	if len(memo) == n {
		return
	}
	if len(ent.spellings) == maxSpellings {
		c.forget(ent, 1)
	}
	ent.spellings = append(ent.spellings, memoSpelling{key, kind})
	b := spellingBytes(len(key))
	ent.bytes += b
	c.bytes += b
	c.evict()
}

// forget drops ent's k oldest spellings from the memo and uncharges them.
// Caller holds c.mu.
func (c *snapCache) forget(ent *entry, k int) {
	for _, sp := range ent.spellings[:k] {
		delete(c.spellings[sp.kind], sp.tok)
		n := spellingBytes(len(sp.tok))
		ent.bytes -= n
		c.bytes -= n
	}
	ent.spellings = append(ent.spellings[:0], ent.spellings[k:]...)
}

// panicError carries a recovered simulation panic to the waiters as an
// ordinary error (classified as HTTP 500).
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("serve: simulation panicked: %v", p.val) }

// hitSoft runs the fault hook at a point where every fault class — including
// an injected panic — degrades to the same "skip this optional step"
// outcome. Genuine panics still propagate.
func hitSoft(point string) (faulted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*fault.InjectedPanic); !ok {
				panic(r)
			}
			faulted = true
		}
	}()
	return fault.Hit(point) != nil
}

// run executes compute for a flight and publishes the result. Called by the
// simulation worker that dequeued the job.
//
// The recover here is load-bearing for more than the worker: run is the only
// place the flight gets resolved, so a panic that escaped past finish would
// leave fl.done open forever and hang every request coalesced onto the
// flight. Recovery must therefore happen exactly here, where the flight can
// still be failed cleanly.
func (c *snapCache) run(key string, fl *flight, compute computeFunc) {
	ent, err := func() (ent *entry, err error) {
		defer func() {
			if r := recover(); r != nil {
				c.panics.Inc()
				err = &panicError{val: r}
			}
		}()
		return compute()
	}()
	c.finish(key, fl, ent, err)
}

// finish resolves a flight: successful entries are admitted to the LRU,
// failures are propagated without caching.
func (c *snapCache) finish(key string, fl *flight, ent *entry, err error) {
	// Fault hook: any injected fault at admission — error, panic, anything —
	// degrades to "serve uncached": the entry still resolves this flight's
	// waiters (correct counts, HTTP 200), it just isn't retained. Checked
	// before taking the lock so an injected latency cannot stall concurrent
	// lookups.
	admit := err == nil && ent != nil
	if admit && hitSoft(fault.ServeCacheAdmit) {
		admit = false
	}
	c.mu.Lock()
	delete(c.flights, key)
	c.gFlights.Set(int64(len(c.flights)))
	if admit {
		c.admit(ent)
	}
	c.mu.Unlock()
	fl.ent, fl.err = ent, err
	close(fl.done)
}

// insert admits an entry built outside any flight — the warm-restart path
// (verified snapshots loaded from disk before the listener opens) and the
// snapshot-shipping PUT (a peer's frozen snapshot installed after the full
// integrity ladder).
func (c *snapCache) insert(ent *entry) {
	c.mu.Lock()
	c.admit(ent)
	c.mu.Unlock()
}

// keyed returns the resident entry for key, admitting one of the given
// bytes with no snapshot when there is none: a KeyMemo's entries are keys
// that spellings resolve to.
func (c *snapCache) keyed(key string, bytes int64) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.elems[key]; ok {
		return el.Value.(*entry)
	}
	ent := &entry{key: key, bytes: bytes}
	c.admit(ent)
	return ent
}

// peek returns the resident entry for key without disturbing LRU order, or
// nil when cold. Snapshot-shipping reads use it so replication traffic does
// not distort the recency signal real sampling traffic produces.
func (c *snapCache) peek(key string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.elems[key]; ok {
		return el.Value.(*entry)
	}
	return nil
}

// admit inserts an entry and evicts LRU entries until the byte budget holds.
// Caller holds c.mu. Entries larger than the whole budget are still admitted
// (they evict everything else): rejecting them would make their circuits
// uncacheable and re-simulate on every request, which is strictly worse.
func (c *snapCache) admit(ent *entry) {
	if old, ok := c.elems[ent.key]; ok {
		// Two flights for one key cannot overlap, but an entry can race a
		// manual invalidation or a shipped snapshot; keep the freshest.
		c.remove(old)
	}
	c.elems[ent.key] = c.ll.PushFront(ent)
	c.bytes += ent.bytes
	c.evict()
}

// evict removes LRU entries until the byte budget holds, keeping the most
// recently used one whatever its size. Caller holds c.mu.
func (c *snapCache) evict() {
	for c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1 {
		c.remove(c.ll.Back())
		c.evictions.Inc()
	}
	c.gBytes.Set(c.bytes)
	c.gEntries.Set(int64(c.ll.Len()))
}

// remove takes an entry and its spellings out of the cache. Caller holds
// c.mu.
func (c *snapCache) remove(el *list.Element) {
	ent := el.Value.(*entry)
	c.forget(ent, len(ent.spellings))
	c.ll.Remove(el)
	delete(c.elems, ent.key)
	c.bytes -= ent.bytes
}

// wait blocks until the flight resolves or ctx expires.
func (c *snapCache) wait(ctx context.Context, fl *flight) (*entry, bool, error) {
	select {
	case <-fl.done:
		return fl.ent, false, fl.err
	case <-ctx.Done():
		return nil, false, fmt.Errorf("serve: abandoned wait for simulation: %w", context.Cause(ctx))
	}
}

// stats is a point-in-time cache summary for /healthz and /v1/stats.
type cacheStats struct {
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	// SpellingHits counts requests answered from the spelling memo, with
	// no parse, validation or hash; SpellingMisses the probes that had to
	// resolve the circuit.
	SpellingHits   uint64 `json:"spelling_hits"`
	SpellingMisses uint64 `json:"spelling_misses"`
	Coalesced      uint64 `json:"coalesced"`
	Evictions      uint64 `json:"evictions"`
	InFlight       int    `json:"in_flight"`
}

func (c *snapCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:        c.ll.Len(),
		Bytes:          c.bytes,
		MaxBytes:       c.maxBytes,
		Hits:           c.hits.Value(),
		Misses:         c.misses.Value(),
		SpellingHits:   c.spHits.Value(),
		SpellingMisses: c.spMisses.Value(),
		Coalesced:      c.coalesced.Value(),
		Evictions:      c.evictions.Value(),
		InFlight:       len(c.flights),
	}
}

// newEntry freezes a simulated state into a cache entry.
func newEntry(key string, snap *dd.Snapshot) (*entry, error) {
	sampler, err := core.NewFrozenSampler(snap)
	if err != nil {
		return nil, err
	}
	return &entry{
		key:     key,
		sampler: sampler,
		qubits:  snap.Qubits(),
		bytes:   int64(snap.Bytes() + sampler.WalkBytes()),
	}, nil
}
