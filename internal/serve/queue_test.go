package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"weaksim/internal/obs"
)

func TestPoolRunsJobs(t *testing.T) {
	p := newSimPool(2, 8, obs.NewRegistry())
	var ran atomic.Int64
	done := make(chan struct{}, 4)
	for i := 0; i < 4; i++ {
		if err := p.submit(func() {
			ran.Add(1)
			done <- struct{}{}
		}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("pool did not run all jobs")
		}
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("ran %d jobs, want 4", n)
	}
	if err := p.close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestPoolQueueFull(t *testing.T) {
	// One worker, unbuffered queue: occupy the worker, then the next submit
	// must be rejected immediately with ErrQueueFull.
	reg := obs.NewRegistry()
	p := newSimPool(1, -1, reg) // depth < 0 → clamped to 0 (unbuffered)
	block := make(chan struct{})
	started := make(chan struct{})
	// With an unbuffered queue a submit can only land once the worker
	// goroutine is parked on its receive; retry briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := p.submit(func() {
			close(started)
			<-block
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first submit never admitted: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	<-started
	base := reg.Counter("serve_queue_rejected_total").Value()
	err := p.submit(func() {})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err=%v, want ErrQueueFull", err)
	}
	if got := reg.Counter("serve_queue_rejected_total").Value(); got != base+1 {
		t.Fatalf("rejected counter=%d, want %d", got, base+1)
	}
	close(block)
	if err := p.close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestPoolDrainingAfterClose(t *testing.T) {
	p := newSimPool(1, 4, obs.NewRegistry())
	if err := p.close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := p.submit(func() {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err=%v, want ErrDraining", err)
	}
	// Second close must be a no-op, not a double-close panic.
	if err := p.close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestPoolCloseHonorsContext(t *testing.T) {
	p := newSimPool(1, 1, obs.NewRegistry())
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	if err := p.submit(func() {
		close(started)
		<-block
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close err=%v, want DeadlineExceeded", err)
	}
}

func TestPoolDrainFinishesQueuedJobs(t *testing.T) {
	// Jobs already admitted before close must still run to completion.
	p := newSimPool(1, 8, obs.NewRegistry())
	var ran atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	_ = p.submit(func() {
		close(started)
		<-gate
		ran.Add(1)
	})
	<-started
	for i := 0; i < 3; i++ {
		if err := p.submit(func() { ran.Add(1) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	close(gate)
	if err := p.close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("drained pool ran %d jobs, want 4", n)
	}
}
