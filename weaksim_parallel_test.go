package weaksim_test

import (
	"context"
	"errors"
	"testing"

	"weaksim"
	"weaksim/internal/stats"
)

// parallelTestState simulates a benchmark circuit with a non-trivial
// distribution for the worker-pool tests.
func parallelTestState(t *testing.T) (*weaksim.State, []float64) {
	t.Helper()
	c, err := weaksim.GenerateBenchmark("qft_8")
	if err != nil {
		t.Fatal(err)
	}
	state, err := weaksim.Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := state.Probabilities()
	if err != nil {
		t.Fatal(err)
	}
	return state, probs
}

// TestWithWorkersMatchesDistribution: chi-square goodness of fit of the
// merged parallel tallies against the exact Born distribution at several
// worker counts — the sampled distribution must be statistically
// indistinguishable from the exact one at any level of parallelism.
func TestWithWorkersMatchesDistribution(t *testing.T) {
	state, probs := parallelTestState(t)
	const shots = 60000
	for _, workers := range []int{1, 4, 8} {
		sampler, err := state.Sampler(weaksim.WithWorkers(workers), weaksim.WithSeed(11+uint64(workers)))
		if err != nil {
			t.Fatal(err)
		}
		if sampler.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", sampler.Workers(), workers)
		}
		counts := sampler.CountsByIndex(shots)
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != shots {
			t.Fatalf("workers=%d: tallied %d shots, want %d", workers, total, shots)
		}
		res, err := stats.ChiSquareGOF(counts, probs, shots)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.PValue < 1e-6 {
			t.Errorf("workers=%d: chi-square rejects: stat=%v dof=%d p=%v",
				workers, res.Statistic, res.DoF, res.PValue)
		}
	}
}

// TestWithWorkersOneIsDefault pins the compatibility guarantee: an explicit
// WithWorkers(1) sampler produces bit-for-bit the counts of a default
// sampler with the same seed.
func TestWithWorkersOneIsDefault(t *testing.T) {
	state, _ := parallelTestState(t)
	def, err := state.Sampler(weaksim.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	one, err := state.Sampler(weaksim.WithSeed(5), weaksim.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	a := def.Counts(4000)
	b := one.Counts(4000)
	if len(a) != len(b) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a), len(b))
	}
	for bits, n := range a {
		if b[bits] != n {
			t.Errorf("outcome %s: default %d, workers(1) %d", bits, n, b[bits])
		}
	}
}

// TestWithWorkersDeterministic: equal seeds reproduce the counts exactly,
// across repeated batches of the same sampler lifetime and at every worker
// count — the batches span several sampling chunks, so the workers really
// split them.
func TestWithWorkersDeterministic(t *testing.T) {
	state, _ := parallelTestState(t)
	mk := func(workers int) *weaksim.Sampler {
		s, err := state.Sampler(weaksim.WithSeed(21), weaksim.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const shots = 150_000
	ref := mk(1)
	others := []*weaksim.Sampler{mk(1), mk(4), mk(8)}
	for batch := 0; batch < 3; batch++ {
		want := ref.Counts(shots)
		for _, s := range others {
			got := s.Counts(shots)
			if len(got) != len(want) {
				t.Fatalf("batch %d workers=%d: %d outcomes, want %d", batch, s.Workers(), len(got), len(want))
			}
			for bits, n := range want {
				if got[bits] != n {
					t.Errorf("batch %d workers=%d outcome %s: %d, workers=1 %d", batch, s.Workers(), bits, got[bits], n)
				}
			}
		}
	}
}

// TestWithWorkersCancellation: a cancelled parallel batch surfaces the typed
// context error with whatever partial tallies the workers drew.
func TestWithWorkersCancellation(t *testing.T) {
	state, _ := parallelTestState(t)
	sampler, err := state.Sampler(weaksim.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counts, err := sampler.CountsContext(ctx, 1<<20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total >= 1<<20 {
		t.Errorf("cancelled batch completed all %d shots", total)
	}
}

// TestSamplerSnapshotNodes: a MethodDD sampler reports the frozen node
// count; a dense-method sampler has no snapshot.
func TestSamplerSnapshotNodes(t *testing.T) {
	state, _ := parallelTestState(t)
	ddS, err := state.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	if ddS.SnapshotNodes() <= 0 {
		t.Errorf("DD sampler SnapshotNodes = %d, want > 0", ddS.SnapshotNodes())
	}
	pfx, err := state.Sampler(weaksim.WithMethod(weaksim.MethodPrefix))
	if err != nil {
		t.Fatal(err)
	}
	if pfx.SnapshotNodes() != 0 {
		t.Errorf("prefix sampler SnapshotNodes = %d, want 0", pfx.SnapshotNodes())
	}
}

// TestRunAutoReportsSnapshot: a DD-tier RunAuto records the frozen snapshot
// size the sampling stage walked — evidence that sampling ran after the
// freeze, beyond the reach of the node budget.
func TestRunAutoReportsSnapshot(t *testing.T) {
	c := weaksim.NewCircuit(3, "ghz3")
	c.H(0).CX(0, 1).CX(1, 2)
	_, report, err := weaksim.RunAuto(context.Background(), c, 500,
		weaksim.WithVectorBudget(2), // force the DD tier
		weaksim.WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if report.Backend != "dd" {
		t.Fatalf("backend = %q, want dd", report.Backend)
	}
	if report.SnapshotNodes <= 0 {
		t.Errorf("SnapshotNodes = %d, want > 0 on a DD-tier run", report.SnapshotNodes)
	}
}

// TestWithWorkersParallelStressFacade hammers one state's snapshot through
// many concurrent samplers; run under -race in CI's stress step.
func TestWithWorkersParallelStressFacade(t *testing.T) {
	state, probs := parallelTestState(t)
	sampler, err := state.Sampler(weaksim.WithWorkers(16), weaksim.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	shots := 40000
	if testing.Short() {
		shots = 8000
	}
	counts := sampler.CountsByIndex(shots)
	total := 0
	for idx, n := range counts {
		if probs[idx] == 0 {
			t.Errorf("impossible outcome %d sampled", idx)
		}
		total += n
	}
	if total != shots {
		t.Errorf("tallied %d shots, want %d", total, shots)
	}
}
