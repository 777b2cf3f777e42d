package core

import (
	"math"
	"testing"

	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
	"weaksim/internal/stats"
)

func TestApproximateIdentityAtZeroThreshold(t *testing.T) {
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	approx, fid, err := Approximate(m, state, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fid != 1 {
		t.Errorf("fidelity = %v, want 1", fid)
	}
	if approx != state {
		t.Error("zero threshold should return the state unchanged")
	}
}

func TestApproximatePrunesMinorBranch(t *testing.T) {
	// The running example's q2=1 branch carries 1/4 of the mass; a 0.3
	// threshold removes it, leaving the (renormalized) q2=0 branch with
	// fidelity 3/4.
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	approx, fid, err := Approximate(m, state, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fid-0.75) > 1e-9 {
		t.Errorf("fidelity = %v, want 3/4", fid)
	}
	if n2 := m.Norm2(approx); math.Abs(n2-1) > 1e-9 {
		t.Errorf("approximate state norm² = %v", n2)
	}
	// All mass now on |001⟩ and |011⟩, half each.
	for idx, want := range map[uint64]float64{1: 0.5, 3: 0.5, 4: 0, 7: 0} {
		if p := m.Amplitude(approx, idx).Abs2(); math.Abs(p-want) > 1e-9 {
			t.Errorf("p(%d) = %v, want %v", idx, p, want)
		}
	}
	if m.NodeCount(approx) >= m.NodeCount(state) {
		t.Errorf("approximation did not shrink the DD: %d vs %d",
			m.NodeCount(approx), m.NodeCount(state))
	}
}

func TestApproximateSamplingMatchesPrunedDistribution(t *testing.T) {
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	approx, _, err := Approximate(m, state, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Freeze(approx)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFrozenSampler(snap)
	if err != nil {
		t.Fatal(err)
	}
	shots := 20000
	counts := Counts(s, rng.New(8), shots)
	expected := []float64{0, 0.5, 0, 0.5, 0, 0, 0, 0}
	res, err := stats.ChiSquareGOF(counts, expected, shots)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 1e-6 {
		t.Errorf("approximate-state samples off: p=%v", res.PValue)
	}
}

func TestApproximateValidation(t *testing.T) {
	m := dd.New(2)
	state := m.ZeroState()
	if _, _, err := Approximate(m, dd.VEdge{}, 0.1); err == nil {
		t.Error("expected error for zero vector")
	}
	if _, _, err := Approximate(m, state, -0.1); err == nil {
		t.Error("expected error for negative threshold")
	}
	if _, _, err := Approximate(m, state, 1); err == nil {
		t.Error("expected error for threshold 1")
	}
}

func TestApproximateKeepsDominantMassOnRandomStates(t *testing.T) {
	// For a random state, pruning at threshold τ keeps fidelity ≥ 1 − k·τ
	// where k is the number of pruned edges; sanity-check the bound loosely
	// and the norm exactly.
	r := rng.New(77)
	n := 6
	vec := make([]cnum.Complex, 1<<uint(n))
	var norm float64
	for i := range vec {
		vec[i] = cnum.New(r.Float64()-0.5, r.Float64()-0.5)
		norm += vec[i].Abs2()
	}
	s := 1 / math.Sqrt(norm)
	for i := range vec {
		vec[i] = vec[i].Scale(s)
	}
	m := dd.New(n)
	state, _ := m.FromVector(vec)
	for _, tau := range []float64{1e-4, 1e-3, 1e-2} {
		approx, fid, err := Approximate(m, state, tau)
		if err != nil {
			t.Fatalf("tau=%g: %v", tau, err)
		}
		if n2 := m.Norm2(approx); math.Abs(n2-1) > 1e-9 {
			t.Errorf("tau=%g: norm² = %v", tau, n2)
		}
		if fid < 0.5 {
			t.Errorf("tau=%g: fidelity collapsed to %v", tau, fid)
		}
	}
}
