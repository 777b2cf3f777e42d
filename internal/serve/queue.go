package serve

// Bounded admission queue + strong-simulation worker pool.
//
// Strong simulation is the expensive, budget-governed stage, so it runs on a
// fixed-size worker pool behind a bounded queue: when every worker is busy
// and the queue is full, new work is rejected immediately (HTTP 429 with
// Retry-After) instead of piling up unbounded goroutines — load shedding at
// the boundary, exactly like the node budget sheds load inside the engine.
//
// Sampling, by contrast, runs on the request goroutine itself: a cached
// frozen snapshot makes it cheap, lock-free, and impossible to MO, so there
// is nothing to queue for.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"weaksim/internal/fault"
	"weaksim/internal/obs"
)

// ErrQueueFull reports that the admission queue rejected a simulation job.
// Handlers map it to HTTP 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: simulation admission queue is full")

// ErrDraining reports that the pool is shutting down and accepts no new
// work. Handlers map it to HTTP 503 Service Unavailable.
var ErrDraining = errors.New("serve: server is draining")

// simJob is one queued strong-simulation request.
type simJob struct {
	run    func()   // executes the compute and resolves the flight
	queued obs.Span // the queue wait, opened at submit, closed at pickup
}

// simPool runs queued simulation jobs on a fixed set of workers.
type simPool struct {
	jobs    chan *simJob
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
	workers int

	reg      *obs.Registry
	depth    *obs.Gauge
	rejected *obs.Counter
	sims     *obs.Counter
}

func newSimPool(workers, depth int, reg *obs.Registry) *simPool {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	p := &simPool{
		jobs:     make(chan *simJob, depth),
		workers:  workers,
		reg:      reg,
		depth:    reg.Gauge("serve_queue_depth"),
		rejected: reg.Counter("serve_queue_rejected_total"),
		sims:     reg.Counter("serve_sims_total"),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *simPool) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		p.depth.Set(int64(len(p.jobs)))
		// The queue wait belongs to the submitting request's trace, but only
		// the worker knows when the job was picked up, so the span opened at
		// submit closes here. It lands before job.run takes its
		// single-flight mark, so coalesced waiters never inherit the
		// leader's queue wait.
		job.queued.End(nil)
		p.sims.Inc()
		job.run()
	}
}

// submit enqueues a job without blocking. It fails with ErrQueueFull when
// the queue is at capacity and with ErrDraining after close.
func (p *simPool) submit(run func()) error { return p.submitWith(nil, run) }

// submitWith is submit with request-trace attribution: the queue-wait span
// feeds phase_queue_ns and rt (nil skips the trace).
func (p *simPool) submitWith(rt *obs.RequestTrace, run func()) error {
	// Fault hook: an injected error is indistinguishable from a full queue —
	// the caller sheds load (HTTP 429 + Retry-After) exactly as it would
	// under real pressure. Hit before the lock so latency faults don't
	// serialize concurrent submitters.
	if err := fault.Hit(fault.ServeQueueSubmit); err != nil {
		p.rejected.Inc()
		return fmt.Errorf("%w (fault injected)", ErrQueueFull)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.rejected.Inc()
		return ErrDraining
	}
	job := &simJob{run: run, queued: obs.StartSpan(p.reg, rt, obs.PhaseQueue)}
	select {
	case p.jobs <- job:
		p.depth.Set(int64(len(p.jobs)))
		p.mu.Unlock()
		return nil
	default:
		p.mu.Unlock()
		p.rejected.Inc()
		return ErrQueueFull
	}
}

// close stops admission and waits for queued and running jobs to finish, or
// for ctx to expire (running simulations observe their own cancellation; a
// blown drain deadline abandons the wait, not the workers).
func (p *simPool) close(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// queued returns the current queue length.
func (p *simPool) queued() int { return len(p.jobs) }
