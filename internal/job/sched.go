package job

// Weighted fair-share scheduling over tenants.
//
// The schedulable unit is a chunk, not a job: a tenant's share of the
// executor is its share of completed chunks, so a million-shot job and a
// thousand-shot job compete at the same granularity and preemption costs at
// most one chunk of latency.
//
// The pick loop is deficit round-robin (Shreedhar/Varghese): the round-robin
// pointer parks on a tenant, grants it weight-proportional credit once per
// visit, and serves one chunk per credit until the credit runs dry — so
// under saturation a weight-10 tenant completes 10 chunks for every chunk a
// weight-1 tenant completes, without ever starving the light tenant
// (every full rotation serves everyone with backlog at least once per
// banked credit).
//
// Within a tenant, jobs are ordered by effective priority class: the
// submitted class (high/normal/low) minus one class per
// DefaultAgingInterval of queue wait, so a low-priority job that has waited
// long enough competes as high — starvation decays instead of compounding.
// Ties break oldest-first.
//
// At most one chunk per job is in flight at a time. That serializes a
// single job's checkpoint stream while still letting the worker pool run
// many jobs in parallel. A worker that picks a job may draw several of its
// chunks in a row, group-committed by one fsync (manager.go), but only
// while no other job is runnable: with contention every pick is one chunk,
// so fair share is unchanged. Each chunk's frame is written as it is
// drawn, so the resume invariant "lose at most one chunk" per job holds
// for a SIGKILL mid-batch too. Per-tenant in-flight caps bound how much of
// the pool one tenant can hold at once regardless of weight.

import (
	"time"
)

// Scheduler tuning defaults.
const (
	// DefaultMaxInFlightPerTenant bounds concurrently executing chunks per
	// tenant.
	DefaultMaxInFlightPerTenant = 4
	// DefaultMaxPerTenant is the non-terminal job quota per tenant;
	// submits beyond it fail with ErrQuota (HTTP 429).
	DefaultMaxPerTenant = 16
	// DefaultAgingInterval is the queue wait that promotes a job one
	// priority class.
	DefaultAgingInterval = 30 * time.Second
)

// tenantState is one tenant's scheduling bookkeeping.
type tenantState struct {
	name     string
	weight   int
	deficit  float64
	credited bool // credit already granted on the current pointer visit
	inflight int  // chunks currently executing
	jobs     []*jobState
}

// sched is the deficit-round-robin pick state. It is embedded in the
// Manager and guarded by the Manager's mutex.
type sched struct {
	weights     map[string]int
	maxInflight int
	aging       time.Duration

	tenants map[string]*tenantState
	order   []string // round-robin visit order (tenant creation order)
	rr      int      // current pointer into order
}

func newSched(weights map[string]int, maxInflight int, aging time.Duration) *sched {
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInFlightPerTenant
	}
	if aging <= 0 {
		aging = DefaultAgingInterval
	}
	return &sched{
		weights:     weights,
		maxInflight: maxInflight,
		aging:       aging,
		tenants:     make(map[string]*tenantState),
	}
}

// weightOf resolves a tenant's configured weight (default 1).
func (s *sched) weightOf(name string) int {
	if w, ok := s.weights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// tenant returns (creating if needed) the state for a tenant name.
func (s *sched) tenant(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{name: name, weight: s.weightOf(name)}
		s.tenants[name] = t
		s.order = append(s.order, name)
	}
	return t
}

// enqueue registers a job with its tenant's run queue.
func (s *sched) enqueue(j *jobState) {
	t := s.tenant(j.spec.Tenant)
	t.jobs = append(t.jobs, j)
}

// dequeue removes a terminal job from its tenant's run queue.
func (s *sched) dequeue(j *jobState) {
	t, ok := s.tenants[j.spec.Tenant]
	if !ok {
		return
	}
	for i, q := range t.jobs {
		if q == j {
			t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
			return
		}
	}
}

// runnable reports whether the job can accept a chunk right now: one
// neither done nor pending in a batch.
func runnable(j *jobState, now time.Time) bool {
	return !j.state.Terminal() && !j.inflight && !j.cancelReq &&
		j.chunksDone+len(j.pending) < j.spec.ChunksTotal() && !now.Before(j.notBefore)
}

// effClass is the job's aged priority class: the submitted class minus one
// per aging interval waited, floored at high.
func (s *sched) effClass(j *jobState, now time.Time) int {
	c := j.spec.Priority
	if s.aging > 0 {
		c -= int(now.Sub(j.enqueued) / s.aging)
	}
	if c < PriorityHigh {
		c = PriorityHigh
	}
	return c
}

// bestJob picks the tenant's next job: minimum effective class, then
// earliest enqueue.
func (s *sched) bestJob(t *tenantState, now time.Time) *jobState {
	var best *jobState
	bestClass := 0
	for _, j := range t.jobs {
		if !runnable(j, now) {
			continue
		}
		c := s.effClass(j, now)
		if best == nil || c < bestClass ||
			(c == bestClass && j.enqueued.Before(best.enqueued)) {
			best, bestClass = j, c
		}
	}
	return best
}

// tenantRunnable reports whether the tenant has capacity and backlog.
func (s *sched) tenantRunnable(t *tenantState, now time.Time) bool {
	if t.inflight >= s.maxInflight {
		return false
	}
	for _, j := range t.jobs {
		if runnable(j, now) {
			return true
		}
	}
	return false
}

// anyRunnable reports whether some job waits for a worker: a tenant with
// capacity and backlog.
func (s *sched) anyRunnable(now time.Time) bool {
	for _, t := range s.tenants {
		if s.tenantRunnable(t, now) {
			return true
		}
	}
	return false
}

// pick returns the next job to run a chunk for, or nil when nothing is
// runnable. Caller holds the Manager mutex and must mark the returned job
// in flight (the pick itself only spends scheduler credit).
func (s *sched) pick(now time.Time) *jobState {
	n := len(s.order)
	for visited := 0; visited <= n; visited++ {
		if n == 0 {
			return nil
		}
		t := s.tenants[s.order[s.rr%n]]
		if s.tenantRunnable(t, now) {
			if !t.credited {
				// One credit grant per pointer visit: weight chunks' worth.
				t.deficit += float64(t.weight)
				t.credited = true
			}
			if t.deficit >= 1 {
				t.deficit--
				if j := s.bestJob(t, now); j != nil {
					// The pointer stays parked: the tenant drains its
					// banked credit before the rotation moves on.
					return j
				}
			}
		} else {
			// Idle tenants bank nothing — fair share is about backlog, not
			// history.
			t.deficit = 0
		}
		t.credited = false
		s.rr = (s.rr + 1) % n
	}
	return nil
}
