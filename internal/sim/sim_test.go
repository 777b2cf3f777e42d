package sim

import (
	"math"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/dd"
	"weaksim/internal/gate"
)

// crossValidate runs the circuit on both backends and compares amplitudes.
func crossValidate(t *testing.T, c *circuit.Circuit, norm dd.Norm) {
	t.Helper()
	ddSim, err := NewDD(c, WithManagerOptions(dd.WithNormalization(norm)))
	if err != nil {
		t.Fatalf("NewDD(%s): %v", c.Name, err)
	}
	state, err := ddSim.Run()
	if err != nil {
		t.Fatalf("DD run(%s): %v", c.Name, err)
	}
	vecSim, err := NewVector(c, 0)
	if err != nil {
		t.Fatalf("NewVector(%s): %v", c.Name, err)
	}
	dense, err := vecSim.Run()
	if err != nil {
		t.Fatalf("vector run(%s): %v", c.Name, err)
	}
	got, err := ddSim.Manager().ToVector(state)
	if err != nil {
		t.Fatalf("ToVector(%s): %v", c.Name, err)
	}
	want := dense.Amplitudes()
	for i := range want {
		if !got[i].ApproxEq(want[i], 1e-8) {
			t.Fatalf("%s (norm=%v): amplitude %d differs: DD %v vs dense %v",
				c.Name, norm, i, got[i], want[i])
		}
	}
	if n2 := ddSim.Manager().Norm2(state); math.Abs(n2-1) > 1e-8 {
		t.Errorf("%s: DD Norm2 = %v", c.Name, n2)
	}
}

// TestBackendsAgreeOnBenchmarks: strong simulation matches the dense state
// vector within 1e-8 under both normalizations, Table I rows included.
// Grover's diffusion cancels amplitudes exactly; before makeVNode flushed
// the residue of those cancellations, NormLeft divided by it and grover_12
// came out 0.115 off, with norm² 0.966.
func TestBackendsAgreeOnBenchmarks(t *testing.T) {
	names := []string{
		"running_example", "figure1",
		"qft_5", "qft_8", "qft_16",
		"grover_4", "grover_6", "grover_10", "grover_12",
		"shor_15_2", "shor_15_7", "shor_21_2", "shor_33_2",
		"jellium_2x2",
		"supremacy_2x2_8", "supremacy_3x3_10",
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := algo.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, norm := range []dd.Norm{dd.NormLeft, dd.NormL2Phase} {
				crossValidate(t, c, norm)
			}
		})
	}
}

func TestRunningExampleState(t *testing.T) {
	// The DD simulation of the running example must produce the paper's
	// Fig. 2 amplitudes exactly (within tolerance).
	c := algo.RunningExample()
	s, err := NewDD(c)
	if err != nil {
		t.Fatal(err)
	}
	state, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := s.Manager()
	wantAbs := []float64{0, math.Sqrt(3.0 / 8), 0, math.Sqrt(3.0 / 8), math.Sqrt(1.0 / 8), 0, 0, math.Sqrt(1.0 / 8)}
	for i, w := range wantAbs {
		amp := m.Amplitude(state, uint64(i))
		if math.Abs(amp.Abs()-w) > 1e-9 {
			t.Errorf("amplitude %d: |%v| = %v, want %v", i, amp, amp.Abs(), w)
		}
	}
	// The paper's -0.612i entries are purely imaginary and negative, the
	// 0.354 entries purely real and positive.
	for _, i := range []uint64{1, 3} {
		amp := m.Amplitude(state, i)
		if amp.Im >= 0 || math.Abs(amp.Re) > 1e-9 {
			t.Errorf("amplitude %d = %v, want negative imaginary", i, amp)
		}
	}
	for _, i := range []uint64{4, 7} {
		amp := m.Amplitude(state, i)
		if amp.Re <= 0 || math.Abs(amp.Im) > 1e-9 {
			t.Errorf("amplitude %d = %v, want positive real", i, amp)
		}
	}
}

func TestDDSimulatorStepAndCaching(t *testing.T) {
	c := circuit.New(2, "steps")
	c.H(0).CX(0, 1).H(0).CX(0, 1)
	s, err := NewDD(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := s.Step(); err == nil {
		t.Error("expected error stepping past the end")
	}
	if s.AppliedOps() != 4 {
		t.Errorf("AppliedOps = %d, want 4", s.AppliedOps())
	}
}

func TestVectorSimulatorMemoryOut(t *testing.T) {
	c := algo.QFT(30)
	if _, err := NewVector(c, 20); err == nil {
		t.Error("expected memory-out for 30 qubits with a 20-qubit budget")
	}
}

func TestDDSimulatorGCDuringLongCircuit(t *testing.T) {
	// A long random-ish circuit with a tiny GC threshold exercises
	// mark-and-sweep mid-simulation; results must match the dense backend.
	c := circuit.New(4, "gcstress")
	for i := 0; i < 60; i++ {
		switch i % 4 {
		case 0:
			c.H(i % 4)
		case 1:
			c.CX(i%4, (i+1)%4)
		case 2:
			c.T((i + 2) % 4)
		case 3:
			c.CZ(i%4, (i+2)%4)
		}
	}
	s, err := NewDD(c, WithManagerOptions(dd.WithGCThreshold(32)))
	if err != nil {
		t.Fatal(err)
	}
	state, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.GCSweeps() == 0 {
		t.Error("expected at least one GC sweep with a tiny threshold")
	}
	vecSim, _ := NewVector(c, 0)
	dense, _ := vecSim.Run()
	got, _ := s.Manager().ToVector(state)
	for i, want := range dense.Amplitudes() {
		if !got[i].ApproxEq(want, 1e-8) {
			t.Fatalf("amplitude %d differs after GC stress: %v vs %v", i, got[i], want)
		}
	}
}

func TestBarrierIsNoOp(t *testing.T) {
	c := circuit.New(2, "barrier")
	c.H(0).Barrier().CX(0, 1)
	s, err := NewDD(c)
	if err != nil {
		t.Fatal(err)
	}
	state, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.AppliedOps() != 2 {
		t.Errorf("AppliedOps = %d, want 2 (barrier must not count)", s.AppliedOps())
	}
	// Bell state.
	m := s.Manager()
	if a := m.Amplitude(state, 0); math.Abs(a.Abs()-math.Sqrt2/2) > 1e-9 {
		t.Errorf("bell amplitude 00 = %v", a)
	}
	if a := m.Amplitude(state, 3); math.Abs(a.Abs()-math.Sqrt2/2) > 1e-9 {
		t.Errorf("bell amplitude 11 = %v", a)
	}
}

// TestPermutationLabelAlias: two different permutations under one label
// must be refused by both backends. The DD backend memoizes a labeled
// permutation's operator by label, so accepting the circuit would reuse the
// first map for the second and answer wrongly without an error.
func TestPermutationLabelAlias(t *testing.T) {
	c := circuit.New(2, "alias")
	c.Permutation([]uint64{1, 2, 3, 0}, 2, "f")
	c.Permutation([]uint64{0, 1, 3, 2}, 2, "f")
	if _, err := NewDD(c); err == nil {
		t.Error("NewDD accepted one label naming two permutations")
	}
	if _, err := NewVector(c, 0); err == nil {
		t.Error("NewVector accepted one label naming two permutations")
	}
	// The same label reused for the same map is fine and simulates exactly.
	ok := circuit.New(3, "reuse")
	ok.H(2)
	ok.Permutation([]uint64{1, 2, 3, 0}, 2, "f")
	ok.Permutation([]uint64{1, 2, 3, 0}, 2, "f", gate.Pos(2))
	crossValidate(t, ok, dd.NormL2Phase)
}

func TestIdentityShortcutCorrectness(t *testing.T) {
	// Deep circuit with gates far apart in the register: the identity
	// shortcut in Mul must not change semantics.
	c := circuit.New(8, "spread")
	c.H(7).CX(7, 0).T(0).CX(0, 7).H(3).CZ(3, 5)
	crossValidate(t, c, dd.NormL2Phase)
}
