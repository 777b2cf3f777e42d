package core

// Chaos coverage for the sampling-walk injection point: a fault on one
// parallel walker must fail the batch as an ordinary error — never crash the
// process (the walkers run on bare goroutines, where an unrecovered panic is
// fatal) and never return counts that silently miss a worker's share.

import (
	"context"
	"errors"
	"testing"

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
