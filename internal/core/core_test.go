package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
	"weaksim/internal/stats"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// runningExampleVector is the paper's Fig. 2 state.
func runningExampleVector() []cnum.Complex {
	a := cnum.New(0, -math.Sqrt(3.0/8.0))
	b := cnum.New(math.Sqrt(1.0/8.0), 0)
	return []cnum.Complex{cnum.Zero, a, cnum.Zero, a, b, cnum.Zero, cnum.Zero, b}
}

func runningExampleProbs() []float64 {
	return []float64{0, 3.0 / 8, 0, 3.0 / 8, 1.0 / 8, 0, 0, 1.0 / 8}
}

func TestFormatParseBits(t *testing.T) {
	if got := FormatBits(3, 3); got != "011" {
		t.Errorf("FormatBits(3,3) = %q, want 011", got)
	}
	if got := FormatBits(4, 3); got != "100" {
		t.Errorf("FormatBits(4,3) = %q", got)
	}
	idx, err := ParseBits("011")
	if err != nil || idx != 3 {
		t.Errorf("ParseBits(011) = %d, %v", idx, err)
	}
	if _, err := ParseBits("01x"); err == nil {
		t.Error("expected error for invalid bit")
	}
	for _, v := range []uint64{0, 1, 5, 127} {
		got, err := ParseBits(FormatBits(v, 7))
		if err != nil || got != v {
			t.Errorf("roundtrip %d: got %d, %v", v, got, err)
		}
	}
}

func TestFigure3PrefixSumSampling(t *testing.T) {
	// Paper Fig. 3 / Example 8: prefix sums of the running example are
	// [0, 3/8, 3/8, 6/8, 7/8, 7/8, 7/8, 1]; p̂ = 1/2 selects index 3,
	// i.e. |011⟩.
	s, err := NewPrefixSampler(runningExampleProbs())
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix := []float64{0, 3.0 / 8, 3.0 / 8, 6.0 / 8, 7.0 / 8, 7.0 / 8, 7.0 / 8, 1}
	for i, want := range wantPrefix {
		if !approx(s.Prefix()[i], want, 1e-12) {
			t.Errorf("prefix[%d] = %v, want %v", i, s.Prefix()[i], want)
		}
	}
	if got := s.Select(0.5); got != 3 {
		t.Errorf("Select(1/2) = %d (%s), want 3 (011)", got, FormatBits(got, 3))
	}
	if got := FormatBits(s.Select(0.5), 3); got != "011" {
		t.Errorf("sampled bitstring %q, want 011", got)
	}
	// Boundary behavior: p̂ just below 3/8 selects index 1, p̂ = 3/8
	// selects index 3 (the next non-zero outcome).
	if got := s.Select(0.374999); got != 1 {
		t.Errorf("Select(0.374999) = %d, want 1", got)
	}
	if got := s.Select(3.0 / 8); got != 3 {
		t.Errorf("Select(3/8) = %d, want 3", got)
	}
	if got := s.Select(0); got != 1 {
		t.Errorf("Select(0) = %d, want 1 (first non-zero outcome)", got)
	}
	if got := s.Select(math.Nextafter(1, 0)); got != 7 {
		t.Errorf("Select(1-ε) = %d, want 7", got)
	}
}

func TestSamplerValidation(t *testing.T) {
	if _, err := NewPrefixSampler([]float64{0.5, 0.5, 0.5}); err == nil {
		t.Error("expected error for non-power-of-two length")
	}
	if _, err := NewPrefixSampler([]float64{0, 0}); err == nil {
		t.Error("expected error for zero distribution")
	}
	if _, err := NewPrefixSampler([]float64{-0.5, 1.5}); err == nil {
		t.Error("expected error for negative probability")
	}
	if _, err := NewLinearSampler([]float64{1}); err == nil {
		t.Error("expected error for single-entry distribution")
	}
	if _, err := NewAliasSampler([]float64{0, 0, 0, 0}); err == nil {
		t.Error("expected error for zero distribution")
	}
}

// chiSquareCheck samples and verifies the result against the exact
// distribution at significance α = 1e-6 (generous to keep the test
// deterministic-in-practice under a fixed seed).
func chiSquareCheck(t *testing.T, name string, s Sampler, expected []float64, shots int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	counts := Counts(s, r, shots)
	res, err := stats.ChiSquareGOF(counts, expected, shots)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.PValue < 1e-6 {
		t.Errorf("%s: chi-square rejects: stat=%v dof=%d p=%v", name, res.Statistic, res.DoF, res.PValue)
	}
	// No sample may land on a zero-probability outcome (error-free weak
	// simulation).
	for idx := range counts {
		if expected[idx] == 0 {
			t.Errorf("%s: sampled impossible outcome %s", name, FormatBits(idx, s.Qubits()))
		}
	}
}

func TestVectorSamplersMatchDistribution(t *testing.T) {
	probs := runningExampleProbs()
	shots := 40000
	ps, err := NewPrefixSampler(probs)
	if err != nil {
		t.Fatal(err)
	}
	chiSquareCheck(t, "prefix", ps, probs, shots, 1)
	ls, err := NewLinearSampler(probs)
	if err != nil {
		t.Fatal(err)
	}
	chiSquareCheck(t, "linear", ls, probs, shots, 2)
	as, err := NewAliasSampler(probs)
	if err != nil {
		t.Fatal(err)
	}
	chiSquareCheck(t, "alias", as, probs, shots, 3)
}

func TestSamplersAcceptUnnormalizedWeights(t *testing.T) {
	weights := []float64{0, 3, 0, 3, 1, 0, 0, 1} // running example × 8
	want := runningExampleProbs()
	ps, err := NewPrefixSampler(weights)
	if err != nil {
		t.Fatal(err)
	}
	chiSquareCheck(t, "prefix-unnormalized", ps, want, 20000, 4)
}

// freezeFor freezes state and wraps it in a FrozenSampler.
func freezeFor(t *testing.T, m *dd.Manager, state dd.VEdge) (*dd.Snapshot, *FrozenSampler) {
	t.Helper()
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFrozenSampler(snap)
	if err != nil {
		t.Fatal(err)
	}
	return snap, s
}

// rootKids returns the running example's root index and its two q1 kids.
func rootKids(snap *dd.Snapshot) (root int32, kids [2]int32) {
	root = snap.Root()
	return root, snap.At(root).Kid
}

func TestDDSamplerMatchesDistribution(t *testing.T) {
	for _, norm := range []dd.Norm{dd.NormLeft, dd.NormL2, dd.NormL2Phase} {
		m := dd.New(3, dd.WithNormalization(norm))
		state, err := m.FromVector(runningExampleVector())
		if err != nil {
			t.Fatal(err)
		}
		_, s := freezeFor(t, m, state)
		chiSquareCheck(t, "dd-"+norm.String(), s, runningExampleProbs(), 40000, 5)
	}
}

func TestDDSamplerRejectsZeroVector(t *testing.T) {
	m := dd.New(3)
	if _, err := m.Freeze(dd.VEdge{}); err == nil {
		t.Error("expected error freezing the zero vector")
	}
	if _, _, err := MeasureAll(m, dd.VEdge{}, rng.New(1)); err == nil {
		t.Error("expected error measuring the zero vector")
	}
}

func TestDownstreamUpstreamRunningExample(t *testing.T) {
	// Under NormLeft the running example reproduces the paper's Fig. 4c
	// edge probabilities: root 3/4 vs 1/4, inner nodes 1/2 each.
	m := dd.New(3, dd.WithNormalization(dd.NormLeft))
	state, _ := m.FromVector(runningExampleVector())
	snap, _ := freezeFor(t, m, state)
	root, kids := rootKids(snap)
	down, up := downMass(snap), upMass(snap)

	// Left subtree of the root holds 3/4 of the (normalized) mass.
	nd := snap.At(root)
	dl, dr := branchMass(&nd, down)
	if !approx(dl/(dl+dr), 0.75, 1e-9) {
		t.Errorf("root left mass fraction = %v, want 3/4", dl/(dl+dr))
	}
	if p0 := branchP0(&nd, down); !approx(p0, 0.75, 1e-9) {
		t.Errorf("root branch probability = %v, want 3/4 (Fig. 4c)", p0)
	}
	for i, k := range kids {
		kid := snap.At(k)
		if p0 := branchP0(&kid, down); !approx(p0, 0.5, 1e-9) {
			t.Errorf("q1 node %d branch probability = %v, want 1/2 (Fig. 4c)", i, p0)
		}
	}

	// Upstream values are half-path masses: combined with downstream they
	// give absolute traversal probabilities (up·down), 1 at the root and
	// 3/4 / 1/4 at the two q1 nodes — under any normalization scheme.
	if got := up[root] * down[root]; !approx(got, 1, 1e-9) {
		t.Errorf("up·down(root) = %v, want 1", got)
	}
	t0, t1 := up[kids[0]]*down[kids[0]], up[kids[1]]*down[kids[1]]
	if !approx(t0, 0.75, 1e-9) || !approx(t1, 0.25, 1e-9) {
		t.Errorf("traversal probabilities of q1 nodes = %v, %v; want 3/4, 1/4", t0, t1)
	}
}

func TestUpstreamDirectlyReadableUnderL2(t *testing.T) {
	// Under L2 normalization downstream ≡ 1, so upstream values alone are
	// the traversal probabilities.
	m := dd.New(3, dd.WithNormalization(dd.NormL2))
	state, _ := m.FromVector(runningExampleVector())
	snap, _ := freezeFor(t, m, state)
	root, kids := rootKids(snap)
	up := upMass(snap)
	if !approx(up[root], 1, 1e-9) {
		t.Errorf("up(root) = %v, want 1", up[root])
	}
	u0, u1 := up[kids[0]], up[kids[1]]
	if !approx(u0, 0.75, 1e-9) || !approx(u1, 0.25, 1e-9) {
		t.Errorf("upstream(q1 nodes) = %v, %v; want 3/4, 1/4", u0, u1)
	}
}

func TestTraversalProbabilitiesSumPerLevel(t *testing.T) {
	m := dd.New(3, dd.WithNormalization(dd.NormLeft))
	state, _ := m.FromVector(runningExampleVector())
	snap, _ := freezeFor(t, m, state)
	down, up := downMass(snap), upMass(snap)
	sums := make(map[int32]float64)
	for i, nd := range snap.Nodes() {
		sums[nd.V] += up[i] * down[i]
	}
	for level, sum := range sums {
		if !approx(sum, 1, 1e-9) {
			t.Errorf("level %d traversal probabilities sum to %v, want 1", level, sum)
		}
	}
}

func TestDownstreamIsOneUnderL2(t *testing.T) {
	m := dd.New(3, dd.WithNormalization(dd.NormL2))
	state, _ := m.FromVector(runningExampleVector())
	snap, _ := freezeFor(t, m, state)
	for i, d := range downMass(snap) {
		if !approx(d, 1, 1e-9) {
			t.Errorf("downstream of node at level %d = %v, want 1 under NormL2", snap.At(int32(i)).V, d)
		}
	}
}

// TestL2BranchRuleIsWeightSquared asserts the paper's Section IV-C claim on
// whole benchmark states: under L2 normalization every node's downstream
// mass is 1, so the downstream rule's P0, d0/(d0+d1), equals |w0|² read off
// the edge weights, at every node within dd.InvariantTol.
func TestL2BranchRuleIsWeightSquared(t *testing.T) {
	rows := []string{"qft_16", "jellium_2x2", "grover_12"}
	if !testing.Short() {
		rows = append(rows, "shor_33_2")
	}
	for _, name := range rows {
		for _, norm := range []dd.Norm{dd.NormL2, dd.NormL2Phase} {
			t.Run(name+"/"+norm.String(), func(t *testing.T) {
				snap := freezeCircuit(t, name, norm)
				down := downMass(snap)
				nodes := snap.Nodes()
				for i := range nodes {
					generic, weights := branchP0(&nodes[i], down), branchP0(&nodes[i], nil)
					if math.Abs(generic-weights) > dd.InvariantTol {
						t.Fatalf("node %d of %d: downstream P0 %.15f, |w0|² %.15f", i, len(nodes), generic, weights)
					}
				}
			})
		}
	}
}

// TestMassesMatchLiveReference: the downstream masses computed over a
// snapshot equal, bit for bit, the live oracle's recursion over the nodes
// they were frozen from, under every normalization.
func TestMassesMatchLiveReference(t *testing.T) {
	vec, _ := frozenRandomVector(6, 29)
	for _, norm := range []dd.Norm{dd.NormLeft, dd.NormL2, dd.NormL2Phase} {
		m := dd.New(6, dd.WithNormalization(norm))
		state, err := m.FromVector(vec)
		if err != nil {
			t.Fatal(err)
		}
		snap, _ := freezeFor(t, m, state)
		down := downMass(snap)
		live := &liveSampler{m: m, root: state, down: map[*dd.VNode]float64{}}
		seen := make([]bool, snap.Len())
		var walk func(n *dd.VNode, i int32)
		walk = func(n *dd.VNode, i int32) {
			if i < 0 || seen[i] {
				return
			}
			seen[i] = true
			if got, want := down[i], live.downOf(n); got != want {
				t.Errorf("norm %v: down[%d] = %v, live %v", norm, i, got, want)
			}
			for b, k := range snap.At(i).Kid {
				walk(n.E[b].N, k)
			}
		}
		walk(state.N, snap.Root())
	}
}

func TestMeasureAllCollapses(t *testing.T) {
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	r := rng.New(7)
	idx, collapsed, err := MeasureAll(m, state, r)
	if err != nil {
		t.Fatal(err)
	}
	if p := runningExampleProbs()[idx]; p == 0 {
		t.Errorf("measured impossible outcome %s", FormatBits(idx, 3))
	}
	if amp := m.Amplitude(collapsed, idx); !approx(amp.Abs(), 1, 1e-9) {
		t.Errorf("collapsed state amplitude at %d = %v, want magnitude 1", idx, amp)
	}
}

func TestQubitProbability(t *testing.T) {
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	// P(q2=1) = 1/8 + 1/8 = 1/4; P(q0=1) = 3/8+3/8+1/8 = 7/8;
	// P(q1=1) = 3/8 + 1/8 = 1/2.
	cases := []struct {
		qubit int
		want  float64
	}{{2, 0.25}, {1, 0.5}, {0, 0.875}}
	for _, tc := range cases {
		got, err := QubitProbability(m, state, tc.qubit)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, tc.want, 1e-9) {
			t.Errorf("P(q%d=1) = %v, want %v", tc.qubit, got, tc.want)
		}
	}
	if _, err := QubitProbability(m, state, 5); err == nil {
		t.Error("expected error for out-of-range qubit")
	}
}

// TestUnnormalizedStateQueries: the snapshot-based queries answer for the
// normalized state instead of silently returning nothing when the input's
// norm is not 1. Projecting q0 of the running example onto 1 keeps norm²
// 7/8, with P(q2=1) = (1/8)/(7/8) = 1/7 and |001⟩, |011⟩ leading at 3/7.
func TestUnnormalizedStateQueries(t *testing.T) {
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	proj, err := Project(m, state, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n2 := m.Norm2(proj); !approx(n2, 0.875, 1e-9) {
		t.Fatalf("projected norm² = %v, want 7/8", n2)
	}
	p, err := QubitProbability(m, proj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 1.0/7, 1e-9) {
		t.Errorf("P(q2=1) of the projection = %v, want 1/7", p)
	}
	top, err := TopOutcomes(m, proj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("TopOutcomes returned %d outcomes, want 2: %v", len(top), top)
	}
	for _, o := range top {
		if !approx(o.Probability, 3.0/7, 1e-9) {
			t.Errorf("outcome %s probability %v, want 3/7", FormatBits(o.Index, 3), o.Probability)
		}
	}
}

func TestMeasureQubitCollapseAndRenormalize(t *testing.T) {
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	r := rng.New(11)
	seen := map[int]bool{}
	for trial := 0; trial < 50; trial++ {
		bit, post, err := MeasureQubit(m, state, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		seen[bit] = true
		if n2 := m.Norm2(post); !approx(n2, 1, 1e-9) {
			t.Fatalf("post-measurement norm² = %v", n2)
		}
		// The collapsed state must have zero support on the other branch.
		vec, _ := m.ToVector(post)
		for i, a := range vec {
			if (i>>2)&1 != bit && a.Abs2() > 1e-18 {
				t.Fatalf("support on q2=%d after measuring %d: index %d has %v", (i>>2)&1, bit, i, a)
			}
		}
	}
	if !seen[0] || !seen[1] {
		t.Error("50 measurements of a 3/4-1/4 qubit saw only one outcome")
	}
}

func TestProjectInvalidArgs(t *testing.T) {
	m := dd.New(3)
	state, _ := m.FromVector(runningExampleVector())
	if _, err := Project(m, state, -1, 0); err == nil {
		t.Error("expected error for negative qubit")
	}
	if _, err := Project(m, state, 0, 2); err == nil {
		t.Error("expected error for bit 2")
	}
}

func TestSamplersAgreeOnRandomStates(t *testing.T) {
	// Cross-check: DD sampling and prefix sampling must produce the same
	// distribution for a random 6-qubit state (compare empirical TVD).
	r := rng.New(23)
	n := 6
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
	probs := ProbabilitiesFromAmplitudes(vec)

	m := dd.New(n)
	state, _ := m.FromVector(vec)
	_, ddS := freezeFor(t, m, state)
	shots := 60000
	chiSquareCheck(t, "dd-random", ddS, probs, shots, 31)

	ps, _ := NewPrefixSampler(probs)
	chiSquareCheck(t, "prefix-random", ps, probs, shots, 32)
}

func TestFigure4cEdgeProbabilities(t *testing.T) {
	// The paper's Fig. 4c edge probabilities — 3/4 and 1/4 at the root,
	// 1/2 everywhere on the q1 level — are properties of the state, so
	// every normalization scheme must produce them under the downstream
	// rule, and the L2 schemes under |w0|² (down == nil) too.
	for _, norm := range []dd.Norm{dd.NormLeft, dd.NormL2, dd.NormL2Phase} {
		m := dd.New(3, dd.WithNormalization(norm))
		state, _ := m.FromVector(runningExampleVector())
		snap, _ := freezeFor(t, m, state)
		rules := map[string][]float64{"downstream": downMass(snap)}
		if norm != dd.NormLeft {
			rules["|w0|²"] = nil
		}
		p0 := func(i int32, down []float64) float64 {
			nd := snap.At(i)
			return branchP0(&nd, down)
		}
		root, kids := rootKids(snap)
		for rule, down := range rules {
			if p := p0(root, down); !approx(p, 0.75, 1e-9) {
				t.Errorf("norm=%v %s: root P0 %v, want 3/4", norm, rule, p)
			}
			for i, k := range kids {
				if p := p0(k, down); !approx(p, 0.5, 1e-9) {
					t.Errorf("norm=%v %s: q1[%d] P0 %v, want 1/2", norm, rule, i, p)
				}
				// The q0 nodes put all probability on their non-zero edge.
				for _, q0 := range snap.At(k).Kid {
					if p := p0(q0, down); !approx(p, 0, 1e-9) && !approx(p, 1, 1e-9) {
						t.Errorf("norm=%v %s: q0 P0 %v, want 0 or 1", norm, rule, p)
					}
				}
			}
		}
	}
}

func TestDDSamplerDeterministicOnBasisState(t *testing.T) {
	m := dd.New(5)
	_, s := freezeFor(t, m, m.BasisState(19))
	r := rng.New(77)
	for i := 0; i < 100; i++ {
		if got := s.Sample(r); got != 19 {
			t.Fatalf("basis-state sample = %d, want 19", got)
		}
	}
}

func TestCountsTotals(t *testing.T) {
	m := dd.New(2)
	vec := []cnum.Complex{cnum.SqrtHalf, cnum.Zero, cnum.Zero, cnum.SqrtHalf}
	state, _ := m.FromVector(vec)
	_, s := freezeFor(t, m, state)
	counts := Counts(s, rng.New(1), 5000)
	total := 0
	for idx, n := range counts {
		if idx != 0 && idx != 3 {
			t.Errorf("impossible outcome %d", idx)
		}
		total += n
	}
	if total != 5000 {
		t.Errorf("counts total %d, want 5000", total)
	}
}

// TestCountsContextCancellation: TallyChunk under a live context draws the
// whole chunk; under a cancelled one it stops within the first check window
// and returns the partial tally alongside the typed error.
func TestCountsContextCancellation(t *testing.T) {
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	s, err := NewPrefixSampler(probs)
	if err != nil {
		t.Fatal(err)
	}

	chunk, err := TallyChunk(context.Background(), s, 9, 0, 3000)
	if err != nil {
		t.Fatalf("TallyChunk with live ctx: %v", err)
	}
	total := 0
	for _, n := range chunk.Map() {
		total += n
	}
	if total != 3000 {
		t.Errorf("counts total %d, want 3000", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := TallyChunk(ctx, s, 9, 0, 1000000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TallyChunk with cancelled ctx: %v, want context.Canceled", err)
	}
	got := 0
	for _, n := range partial.Map() {
		got += n
	}
	if got >= CtxCheckShots {
		t.Errorf("drew %d shots past a cancelled context (check interval %d)", got, CtxCheckShots)
	}
}
