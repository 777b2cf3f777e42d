package cluster

// Backend state and the health prober.
//
// Every backend starts healthy (optimistic: the router should route from the
// first request, not after a probe round-trip) and is then continuously
// probed on /readyz. Ejection requires FailThreshold *consecutive* failures
// — one dropped packet must not empty the ring — and failed forwards count
// toward the same tally as failed probes, so a replica that dies under load
// is ejected by the traffic itself, typically before the next probe tick.
//
// Reinstatement is probe-driven with exponential backoff: an ejected backend
// is re-probed only after its backoff window elapses, and each further
// failed probe doubles the window up to MaxBackoff. One successful probe
// fully reinstates it (consecutive-failure count and backoff reset) — the
// /readyz contract is that a 200 means "route to me", including after a
// drain-and-restart.

import (
	"strings"
	"sync"
	"time"

	"weaksim/internal/obs"
)

// backend is one replica's routing state plus its per-backend metrics.
type backend struct {
	name string // base URL, e.g. "http://127.0.0.1:8081"; the ring identity

	mu          sync.Mutex
	healthy     bool
	consecFails int
	backoff     time.Duration
	retryAt     time.Time // ejected backends are probed only after this
	// walk is the core.WalkVersion the backend's last successful /readyz
	// probe reported; 0 until one has.
	walk int

	// Per-backend series, named cluster_backend_<sanitized>_*: request
	// count, health (1/0), and primary-ownership share of the ring in
	// permille.
	requests  *obs.Counter
	gHealthy  *obs.Gauge
	gOwnPerMi *obs.Gauge
}

// sanitizeMetric folds a backend URL into a metric-name-safe token:
// lowercase [a-z0-9_] with everything else collapsed to '_'.
func sanitizeMetric(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range strings.ToLower(strings.TrimPrefix(strings.TrimPrefix(name, "https://"), "http://")) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func newBackend(name string, reg *obs.Registry) *backend {
	stem := "cluster_backend_" + sanitizeMetric(name)
	obs.RegisterHelp(stem+"_requests_total", "Requests the router forwarded to backend "+name+".")
	obs.RegisterHelp(stem+"_healthy", "1 while backend "+name+" is in the ring, 0 while ejected.")
	obs.RegisterHelp(stem+"_ring_permille", "Share of the hash ring owned by backend "+name+" (primary placements, permille).")
	b := &backend{
		name:      name,
		healthy:   true,
		requests:  reg.Counter(stem + "_requests_total"),
		gHealthy:  reg.Gauge(stem + "_healthy"),
		gOwnPerMi: reg.Gauge(stem + "_ring_permille"),
	}
	b.gHealthy.Set(1)
	return b
}

// isHealthy reports whether the backend is currently in the routing set.
func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// noteFailure records one consecutive failure (probe or forward transport
// error) and ejects the backend once the threshold is reached. It returns
// true when this call transitioned the backend from healthy to ejected.
func (b *backend) noteFailure(threshold int, initialBackoff, maxBackoff time.Duration, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.healthy && b.consecFails >= threshold {
		b.healthy = false
		b.backoff = initialBackoff
		b.retryAt = now.Add(b.backoff)
		b.gHealthy.Set(0)
		return true
	}
	if !b.healthy {
		// Already ejected: a further failed probe doubles the backoff.
		b.backoff *= 2
		if b.backoff > maxBackoff {
			b.backoff = maxBackoff
		}
		b.retryAt = now.Add(b.backoff)
	}
	return false
}

// noteSuccess resets the failure tally and reinstates an ejected backend.
// It returns true when this call transitioned the backend back to healthy.
func (b *backend) noteSuccess() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	b.backoff = 0
	if !b.healthy {
		b.healthy = true
		b.gHealthy.Set(1)
		return true
	}
	return false
}

// probeDue reports whether the health prober should contact this backend
// now: always while healthy, and only after the backoff window while
// ejected.
func (b *backend) probeDue(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy || !now.Before(b.retryAt)
}

// noteWalk records the walk version a /readyz probe reported.
func (b *backend) noteWalk(walk int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.walk = walk
}

// walkVersion returns the walk version the backend last reported, 0 if
// none.
func (b *backend) walkVersion() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.walk
}

// snapshotState returns the fields the /v1/cluster status endpoint reports.
func (b *backend) snapshotState() (healthy bool, consecFails int, backoff time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy, b.consecFails, b.backoff
}
