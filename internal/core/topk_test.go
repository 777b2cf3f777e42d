package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
)

func TestTopOutcomesRunningExample(t *testing.T) {
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	top, err := TopOutcomes(m, state, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(top))
	}
	// 3/8 at indices 1 and 3, then 1/8 at 4 and 7.
	if top[0].Index != 1 || top[1].Index != 3 {
		t.Errorf("top-2 = %d, %d; want 1, 3", top[0].Index, top[1].Index)
	}
	if !approx(top[0].Probability, 0.375, 1e-9) || !approx(top[2].Probability, 0.125, 1e-9) {
		t.Errorf("probabilities = %v", top)
	}
}

func TestTopOutcomesExhaustsSupport(t *testing.T) {
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	// Only 4 outcomes have non-zero probability; asking for 10 returns 4.
	top, err := TopOutcomes(m, state, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 {
		t.Errorf("got %d outcomes, want the 4 in the support", len(top))
	}
	var sum float64
	for _, o := range top {
		sum += o.Probability
	}
	if !approx(sum, 1, 1e-9) {
		t.Errorf("support probabilities sum to %v", sum)
	}
}

func TestTopOutcomesMatchesDenseEnumeration(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed uint64, kRaw uint8) bool {
		r := rng.New(seed)
		n := 5
		size := 1 << uint(n)
		vec := make([]cnum.Complex, size)
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
		k := 1 + int(kRaw%10)
		top, err := TopOutcomes(m, state, k)
		if err != nil || len(top) != k {
			return false
		}
		// Dense reference.
		type pair struct {
			idx uint64
			p   float64
		}
		ref := make([]pair, size)
		for i, a := range vec {
			ref[i] = pair{uint64(i), a.Abs2()}
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].p > ref[j].p })
		for i := 0; i < k; i++ {
			// Compare probabilities (indices may tie).
			if math.Abs(top[i].Probability-ref[i].p) > 1e-9 {
				t.Logf("seed %d k %d: rank %d: %v vs dense %v", seed, k, i, top[i], ref[i])
				return false
			}
		}
		// Descending order.
		for i := 1; i < k; i++ {
			if top[i].Probability > top[i-1].Probability+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTopOutcomesWorksUnderEveryNorm(t *testing.T) {
	for _, norm := range []dd.Norm{dd.NormLeft, dd.NormL2Phase} {
		m := dd.New(3, dd.WithNormalization(norm))
		state, _ := m.FromVector(runningExampleVector())
		top, err := TopOutcomes(m, state, 1)
		if err != nil || len(top) != 1 {
			t.Fatalf("norm=%v: %v %v", norm, top, err)
		}
		if !approx(top[0].Probability, 0.375, 1e-9) {
			t.Errorf("norm=%v: top probability %v", norm, top[0].Probability)
		}
	}
}

func TestTopOutcomesValidation(t *testing.T) {
	m := dd.New(2)
	if _, err := TopOutcomes(m, dd.VEdge{}, 3); err == nil {
		t.Error("expected error for zero vector")
	}
	if _, err := TopOutcomes(m, m.ZeroState(), 0); err == nil {
		t.Error("expected error for k=0")
	}
}
