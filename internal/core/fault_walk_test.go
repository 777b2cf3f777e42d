package core

// Chaos coverage for the sampling-walk injection point: a fault on one
// parallel walker must fail the batch as an ordinary error — never crash the
// process (the walkers run on bare goroutines, where an unrecovered panic is
// fatal) and never return counts that silently miss a worker's share.

import (
	"context"
	"errors"
	"testing"
	"time"

	"weaksim/internal/dd"
	"weaksim/internal/fault"
)

func faultTestSampler(t *testing.T) *FrozenSampler {
	t.Helper()
	vec, _ := frozenRandomVector(4, 7)
	m := dd.New(4)
	state, err := m.FromVector(vec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFrozenSampler(snap)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestFaultSamplerWalkErrFailsBatch: an injected error at the cooperative
// check cadence surfaces as the batch error, wrapping ErrInjected.
func TestFaultSamplerWalkErrFailsBatch(t *testing.T) {
	fs := faultTestSampler(t)
	if err := fault.Enable("sampler.walk:err@1", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	_, err := CountsParallelContext(context.Background(), fs, 3, 4*CtxCheckShots, 2)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("batch error %v, want ErrInjected", err)
	}
	// The window closed after one hit: a rerun draws the full batch.
	counts, err := CountsParallelContext(context.Background(), fs, 3, 4*CtxCheckShots, 2)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 4*CtxCheckShots {
		t.Fatalf("rerun drew %d shots, want %d", total, 4*CtxCheckShots)
	}
}

// TestFaultSamplerWalkPanicIsolatedToWorker: an injected panic on a walker
// goroutine is recovered in that worker and converted to the batch error —
// the other worker finishes its chunk, nothing crashes, and the panic's
// point survives in the error chain for diagnosis.
func TestFaultSamplerWalkPanicIsolatedToWorker(t *testing.T) {
	fs := faultTestSampler(t)
	if err := fault.Enable("sampler.walk:panic@1", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	counts, err := CountsParallelContext(context.Background(), fs, 3, 2*ChunkShots, 2)
	if err == nil {
		t.Fatal("panicking walker reported success")
	}
	var ip *fault.InjectedPanic
	if !errors.As(err, &ip) || ip.Point != fault.SamplerWalk {
		t.Fatalf("batch error %v, want *fault.InjectedPanic at %s", err, fault.SamplerWalk)
	}
	// The panic hit before the first shot of one chunk; the healthy worker
	// drew the other chunk in full.
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != ChunkShots {
		t.Fatalf("partial tally holds %d shots, want the healthy worker's %d", total, ChunkShots)
	}
}

// countdownCtx is a context whose Err turns to context.Canceled on its
// limit-th call and stays so.
type countdownCtx struct {
	context.Context
	calls, limit int
}

func (c *countdownCtx) Err() error {
	if c.calls++; c.calls >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestSplitCancelStride: on a high-entropy row (qft_16, one 65,536-shot
// chunk, most outcomes drawn once or twice) the split consults its context
// before the shots that reach every multiple of CtxCheckShots and never
// more than splitMax shots late, so a cancel costs at most CtxCheckShots +
// splitMax shots of work; the tally it returns holds exactly the shots
// placed before the cancelling check.
func TestSplitCancelStride(t *testing.T) {
	fs, err := NewFrozenSampler(freezeCircuit(t, "qft_16", dd.NormL2Phase))
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 2, 3, 17, 64, 128} {
		ctx := &countdownCtx{Context: context.Background(), limit: limit}
		tally, err := TallyChunk(ctx, fs, 1, 0, ChunkShots)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: err = %v, want context.Canceled", limit, err)
		}
		total := 0
		tally.Ascending(func(_ uint64, n int) { total += n })
		if hi := (limit - 1) * CtxCheckShots; total > hi || total < hi-splitMax {
			t.Errorf("check %d cancelled after %d shots, want %d less at most %d", limit, total, hi, splitMax)
		}
	}
}

// TestSplitCancelLatency: a chunk slowed by a latency fault at every check
// returns context.Canceled within one check's latency of its context being
// cancelled, with the part of the chunk placed before it.
func TestSplitCancelLatency(t *testing.T) {
	fs, err := NewFrozenSampler(freezeCircuit(t, "qft_16", dd.NormL2Phase))
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable("sampler.walk:latency(2ms)@1+", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	timer := time.AfterFunc(20*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	defer timer.Stop()
	tally, err := TallyChunk(ctx, fs, 1, 0, ChunkShots) // 128 checks, 256 ms uncancelled
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lag := returned.Sub(cancelled); lag > 50*time.Millisecond {
		t.Errorf("returned %v after the cancel, want within one 2 ms check", lag)
	}
	total := 0
	tally.Ascending(func(_ uint64, n int) { total += n })
	if total == 0 || total >= ChunkShots {
		t.Errorf("partial tally holds %d of %d shots", total, ChunkShots)
	}
}
