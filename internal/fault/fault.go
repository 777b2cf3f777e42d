// Package fault is a deterministic, seed-driven fault-injection framework
// for chaos-testing the simulation pipeline end to end.
//
// The resilience claims of the serving layer — budget overruns answer 507,
// blown deadlines 504, a full queue 429, a panicking simulation fails only
// its own flight, a corrupt snapshot file is quarantined and re-simulated —
// are only worth anything if every one of those branches is actually
// exercised. Left to nature, most of them fire rarely or never. This package
// compiles *named injection points* into the production code paths (the
// unique-table insert, the garbage collector, Freeze, the sampling walk
// loop, the serve queue/cache/worker pool, the snapshot store, and the
// cluster router's backend-connect and snapshot-shipping hops) and lets
// a test or an operator arm them with a compact spec:
//
//	dd.freeze:err@3,snapstore.write:truncate@1,sampler.walk:latency(50ms)
//
// Each rule is point:class[@trigger]. Classes:
//
//	err           the hook returns ErrInjected (points that cannot surface
//	              an error escalate to a panic, documented per point)
//	panic         the hook panics with *Panic
//	latency(D)    the hook sleeps D (Go duration syntax) and succeeds
//	corrupt       byte-stream hooks (Mangle) flip one deterministically
//	              chosen byte; non-byte hooks degrade to err
//	truncate      byte-stream hooks cut the payload short; non-byte hooks
//	              degrade to err
//
// Triggers select which hits fire: "@3" fires on exactly the third hit of
// that point, "@3+" on the third and every later hit, and no trigger means
// every hit. Hit counting is per rule and atomic, so a multi-worker run
// still fires deterministically on the Nth global hit. Byte corruption
// positions derive from a SplitMix64 stream over (seed, hit), so a given
// (spec, seed) pair reproduces the same damage bit for bit.
//
// Disabled is free: when no spec is armed, every hook is a single atomic
// pointer load that allocates nothing — cheap enough to live on the
// sampling hot path (the chaos suite pins 0 allocs/op on it).
//
// The plan is process-global (faults model a sick process, not a sick
// request), so tests arm it with Enable and must Disable before returning.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Registered injection points. The catalogue is the contract the chaos suite
// iterates over: every point here is compiled into a production code path,
// and Enable rejects specs naming anything else, so a typo cannot silently
// disarm a chaos test.
const (
	// DDUniqueInsert fires on every unique-table miss (node allocation). An
	// injected err models an allocation failure and surfaces as
	// dd.ErrNodeBudget through Guarded — the deterministic way to exercise
	// the MO ladder (HTTP 507).
	DDUniqueInsert = "dd.unique.insert"
	// DDGC fires at the start of every mark-and-sweep collection. GC cannot
	// return an error, so err escalates to panic.
	DDGC = "dd.gc"
	// DDFreeze fires at the start of Manager.Freeze.
	DDFreeze = "dd.freeze"
	// SamplerWalk fires in every chunk body (core's drawChunk: /v1/sample,
	// job chunks, Counts) at the cooperative cancellation cadence (every
	// core.CtxCheckShots shots).
	SamplerWalk = "sampler.walk"
	// ServeSim fires at the start of a strong-simulation job on a serve
	// worker — inside the panic-isolation boundary.
	ServeSim = "serve.sim"
	// ServeQueueSubmit fires on admission-queue submit. An injected err
	// models queue pressure and surfaces as serve.ErrQueueFull (HTTP 429).
	ServeQueueSubmit = "serve.queue.submit"
	// ServeCacheAdmit fires when a computed entry is admitted to the
	// snapshot LRU. Any injected fault skips the admission (the result is
	// still served, uncached — degrade, never fail).
	ServeCacheAdmit = "serve.cache.admit"
	// SnapstoreWrite is a byte-stream hook over the snapshot file's bytes,
	// CRC trailer included, before they are written.
	SnapstoreWrite = "snapstore.write"
	// SnapstoreRead is a byte-stream hook over the snapshot file payload
	// after it is read and before integrity checks.
	SnapstoreRead = "snapstore.read"
	// ClusterConnect fires in the cluster router before each forwarded
	// backend request. An injected err models a backend connect failure and
	// exercises the ejection + retry-with-failover path.
	ClusterConnect = "cluster.backend.connect"
	// ClusterSnapFetch is a byte-stream hook over a snapshot frame fetched
	// from a warm replica during snapshot shipping, before the receiving
	// primary's integrity checks. Corruption here must degrade to
	// re-simulation on the target, never to a failed client request.
	ClusterSnapFetch = "cluster.snapfetch"
	// JobWALWrite is a byte-stream hook over each batch-job WAL record frame
	// before it is appended — chaos tests forge torn and bit-rotted job logs
	// without hex-editing segment files.
	JobWALWrite = "job.wal.write"
	// JobWALReplay is a byte-stream hook over each WAL segment's bytes after
	// they are read and before record scanning, so replay-side corruption
	// (quarantine, torn-tail truncation) is exercised deterministically.
	JobWALReplay = "job.wal.replay"
	// JobChunkSample fires before each batch-job chunk executes. An injected
	// err fails the chunk (and with it the job, through the terminal-state
	// ladder); latency stretches a chunk so kill-and-resume tests can land a
	// crash mid-chunk.
	JobChunkSample = "job.chunk.sample"
)

// Points returns the registered injection-point catalogue.
func Points() []string {
	return []string{
		DDUniqueInsert, DDGC, DDFreeze,
		SamplerWalk,
		ServeSim, ServeQueueSubmit, ServeCacheAdmit,
		SnapstoreWrite, SnapstoreRead,
		ClusterConnect, ClusterSnapFetch,
		JobWALWrite, JobWALReplay, JobChunkSample,
	}
}

// knownPoint reports whether name is in the catalogue.
func knownPoint(name string) bool {
	for _, p := range Points() {
		if p == name {
			return true
		}
	}
	return false
}

// Class is a fault class.
type Class uint8

const (
	// Err makes the hook return ErrInjected.
	Err Class = iota
	// Panic makes the hook panic with *Panic.
	Panic
	// Latency makes the hook sleep its rule's duration.
	Latency
	// Corrupt flips one byte of a Mangle payload (err elsewhere).
	Corrupt
	// Truncate cuts a Mangle payload short (err elsewhere).
	Truncate
)

// String returns the spec spelling of the class.
func (c Class) String() string {
	switch c {
	case Err:
		return "err"
	case Panic:
		return "panic"
	case Latency:
		return "latency"
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ErrInjected is the root of every error produced by an armed hook.
// Detect with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Panic is the payload of an injected panic, so recovery sites can tell a
// chaos-injected panic from a genuine bug in test assertions.
type InjectedPanic struct{ Point string }

func (p *InjectedPanic) Error() string { return "fault: injected panic at " + p.Point }

// rule is one armed fault: fire class at point on hits in [from, to].
type rule struct {
	point string
	class Class
	lat   time.Duration
	from  uint64 // first firing hit, 1-based
	to    uint64 // last firing hit (MaxUint64 = open-ended)
	seed  uint64
	hits  atomic.Uint64
}

// fire reports whether this hit (atomically counted) is inside the rule's
// trigger window, and the hit ordinal.
func (r *rule) fire() (uint64, bool) {
	n := r.hits.Add(1)
	return n, n >= r.from && n <= r.to
}

// plan is an immutable compiled spec.
type plan struct {
	spec  string
	seed  uint64
	rules map[string][]*rule
}

var active atomic.Pointer[plan]

// observer, when set, is called synchronously every time an armed rule
// actually fires (not on every hit). The serving layer uses it to record
// injected faults into the flight recorder, so a chaos run leaves a
// post-hoc-debuggable artifact instead of just a flipped status code. The
// callback runs on the faulting goroutine and must be cheap and must not
// itself call into fault.
type observerFn func(point string, class Class)

var observer atomic.Pointer[observerFn]

// SetObserver installs the fired-fault callback (nil removes it). Only one
// observer is active at a time; the last call wins.
func SetObserver(fn func(point string, class Class)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	f := observerFn(fn)
	observer.Store(&f)
}

// notify reports a fired rule to the observer, if any.
func notify(point string, class Class) {
	if fn := observer.Load(); fn != nil {
		(*fn)(point, class)
	}
}

// Enable compiles and arms a fault spec. The seed drives byte-corruption
// positions (and nothing else); the same (spec, seed) produces the same
// faults in the same order. An empty spec disables injection, like Disable.
func Enable(spec string, seed uint64) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		Disable()
		return nil
	}
	p := &plan{spec: spec, seed: seed, rules: make(map[string][]*rule)}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		r, err := parseRule(item, seed)
		if err != nil {
			return fmt.Errorf("fault: bad rule %q: %w", item, err)
		}
		p.rules[r.point] = append(p.rules[r.point], r)
	}
	if len(p.rules) == 0 {
		return errors.New("fault: spec contains no rules")
	}
	active.Store(p)
	return nil
}

// Disable disarms all faults.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is armed.
func Enabled() bool { return active.Load() != nil }

// Active returns the armed spec ("" when disabled), for logging.
func Active() string {
	if p := active.Load(); p != nil {
		return p.spec
	}
	return ""
}

// parseRule parses "point:class[@trigger]" with class one of err, panic,
// corrupt, truncate, latency(D).
func parseRule(item string, seed uint64) (*rule, error) {
	colon := strings.IndexByte(item, ':')
	if colon <= 0 {
		return nil, errors.New(`want "point:class[@trigger]"`)
	}
	point := item[:colon]
	if !knownPoint(point) {
		return nil, fmt.Errorf("unknown injection point %q (catalogue: %s)",
			point, strings.Join(Points(), " "))
	}
	rest := item[colon+1:]
	r := &rule{point: point, from: 1, to: ^uint64(0), seed: seed}
	if at := strings.IndexByte(rest, '@'); at >= 0 {
		trig := rest[at+1:]
		rest = rest[:at]
		open := strings.HasSuffix(trig, "+")
		trig = strings.TrimSuffix(trig, "+")
		n, err := strconv.ParseUint(trig, 10, 64)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("trigger %q: want a positive hit ordinal like @3 or @3+", trig)
		}
		r.from = n
		if !open {
			r.to = n
		}
	}
	switch {
	case rest == "err":
		r.class = Err
	case rest == "panic":
		r.class = Panic
	case rest == "corrupt":
		r.class = Corrupt
	case rest == "truncate":
		r.class = Truncate
	case strings.HasPrefix(rest, "latency(") && strings.HasSuffix(rest, ")"):
		d, err := time.ParseDuration(rest[len("latency(") : len(rest)-1])
		if err != nil {
			return nil, fmt.Errorf("latency duration: %w", err)
		}
		if d < 0 {
			return nil, errors.New("latency duration must be non-negative")
		}
		r.class = Latency
		r.lat = d
	default:
		return nil, fmt.Errorf("unknown class %q (want err, panic, corrupt, truncate, or latency(duration))", rest)
	}
	return r, nil
}

// Hit is the standard (non-byte) injection hook. When the point has no armed
// firing rule it returns nil without allocating. Otherwise:
//
//	Err, Corrupt, Truncate → returns ErrInjected (wrapped with the point)
//	Latency                → sleeps, returns nil
//	Panic                  → panics with *Panic
func Hit(point string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(point)
}

// hit is the armed slow path, kept out of Hit so the disabled path inlines.
func (p *plan) hit(point string) error {
	var err error
	for _, r := range p.rules[point] {
		if _, on := r.fire(); !on {
			continue
		}
		notify(point, r.class)
		switch r.class {
		case Latency:
			time.Sleep(r.lat)
		case Panic:
			panic(&InjectedPanic{Point: point})
		default: // Err; Corrupt and Truncate degrade to Err off the byte path
			err = fmt.Errorf("%w: %s at %s", ErrInjected, r.class, point)
		}
	}
	return err
}

// Mangle is the byte-stream injection hook: it returns the (possibly
// damaged) payload to actually write or decode. Corrupt flips one
// deterministically chosen byte in a copy of b; Truncate cuts b to a
// deterministic shorter length. Err, Latency, and Panic behave as in Hit.
// The input slice is never modified.
func Mangle(point string, b []byte) ([]byte, error) {
	p := active.Load()
	if p == nil {
		return b, nil
	}
	return p.mangle(point, b)
}

func (p *plan) mangle(point string, b []byte) ([]byte, error) {
	var err error
	for _, r := range p.rules[point] {
		n, on := r.fire()
		if !on {
			continue
		}
		notify(point, r.class)
		switch r.class {
		case Latency:
			time.Sleep(r.lat)
		case Panic:
			panic(&InjectedPanic{Point: point})
		case Err:
			err = fmt.Errorf("%w: err at %s", ErrInjected, point)
		case Corrupt:
			if len(b) > 0 {
				c := make([]byte, len(b))
				copy(c, b)
				pos := splitmix(r.seed^n) % uint64(len(c))
				c[pos] ^= 1 << (splitmix(r.seed^n^0x9e37) % 8)
				b = c
			}
		case Truncate:
			if len(b) > 0 {
				// Keep at least one byte missing: cut to a deterministic
				// length strictly below the original.
				keep := int(splitmix(r.seed^n) % uint64(len(b)))
				b = b[:keep]
			}
		}
	}
	return b, err
}

// splitmix is SplitMix64 — the same mixer the rng package builds streams
// from, reimplemented here so fault stays dependency-free.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
