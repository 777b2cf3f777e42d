package weaksim_test

import (
	"errors"
	"math"
	"testing"

	"weaksim"
	"weaksim/internal/stats"
)

func TestQuickstartBell(t *testing.T) {
	c := weaksim.NewCircuit(2, "bell")
	c.H(0).CX(0, 1)
	counts, err := weaksim.Run(c, 4000, weaksim.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if counts["01"]+counts["10"] != 0 {
		t.Errorf("bell state produced odd-parity outcomes: %v", counts)
	}
	if counts["00"] == 0 || counts["11"] == 0 {
		t.Errorf("bell state missing an outcome: %v", counts)
	}
	total := counts["00"] + counts["11"]
	if total != 4000 {
		t.Errorf("total shots %d, want 4000", total)
	}
	if frac := float64(counts["00"]) / 4000; math.Abs(frac-0.5) > 0.05 {
		t.Errorf("outcome 00 fraction %v, want ≈0.5", frac)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	c := weaksim.NewCircuit(3, "ghz")
	c.H(0).CX(0, 1).CX(1, 2)
	a, err := weaksim.Run(c, 100, weaksim.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := weaksim.Run(c, 100, weaksim.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("different outcome sets: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("seeded runs differ at %q: %d vs %d", k, v, b[k])
		}
	}
}

func TestRunValidation(t *testing.T) {
	c := weaksim.NewCircuit(2, "bad")
	if _, err := weaksim.Run(c, 0); err == nil {
		t.Error("expected error for zero shots")
	}
	c.H(5) // out of range
	if _, err := weaksim.Run(c, 10); err == nil {
		t.Error("expected validation error for out-of-range target")
	}
}

// TestSimulateRefusesNonFiniteAngles checks that a NaN or infinite gate
// angle is refused up front instead of simulating to a state of garbage
// amplitudes.
func TestSimulateRefusesNonFiniteAngles(t *testing.T) {
	for _, theta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := weaksim.NewCircuit(2, "bad_angle")
		c.H(0).RX(theta, 1).CX(0, 1)
		if st, err := weaksim.Simulate(c); err == nil {
			t.Errorf("RX(%v): Simulate returned a state with Norm2 %v and no error", theta, st.Norm2())
		}
	}
}

// TestFigure2Pipeline reproduces the paper's Fig. 2 end to end: circuit →
// strong simulation → probabilities → samples.
func TestFigure2Pipeline(t *testing.T) {
	c, err := weaksim.GenerateBenchmark("running_example")
	if err != nil {
		t.Fatal(err)
	}
	state, err := weaksim.Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	// Middle of Fig. 2: the amplitudes.
	wantAmps := map[string]complex128{
		"000": 0,
		"001": complex(0, -math.Sqrt(3.0/8.0)),
		"010": 0,
		"011": complex(0, -math.Sqrt(3.0/8.0)),
		"100": complex(math.Sqrt(1.0/8.0), 0),
		"101": 0,
		"110": 0,
		"111": complex(math.Sqrt(1.0/8.0), 0),
	}
	for bits, want := range wantAmps {
		got, err := state.Amplitude(bits)
		if err != nil {
			t.Fatal(err)
		}
		if d := got - want; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Errorf("amplitude %s = %v, want %v", bits, got, want)
		}
	}
	// Right of Fig. 2: the probabilities.
	probs, err := state.Probabilities()
	if err != nil {
		t.Fatal(err)
	}
	wantProbs := []float64{0, 3.0 / 8, 0, 3.0 / 8, 1.0 / 8, 0, 0, 1.0 / 8}
	for i := range wantProbs {
		if math.Abs(probs[i]-wantProbs[i]) > 1e-9 {
			t.Errorf("p[%d] = %v, want %v", i, probs[i], wantProbs[i])
		}
	}
	// Measurement: every sampling method yields statistically
	// indistinguishable outputs.
	for _, method := range []weaksim.Method{
		weaksim.MethodDD, weaksim.MethodPrefix, weaksim.MethodLinear, weaksim.MethodAlias,
	} {
		sampler, err := state.Sampler(weaksim.WithMethod(method), weaksim.WithSeed(3))
		if err != nil {
			t.Fatalf("%v sampler: %v", method, err)
		}
		shots := 30000
		counts := sampler.CountsByIndex(shots)
		res, err := stats.ChiSquareGOF(counts, wantProbs, shots)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 1e-6 {
			t.Errorf("method %v distinguishable from exact distribution: p=%v", method, res.PValue)
		}
	}
}

func TestStateIntrospection(t *testing.T) {
	c, _ := weaksim.GenerateBenchmark("qft_8")
	state, err := weaksim.Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if state.Qubits() != 8 {
		t.Errorf("Qubits = %d", state.Qubits())
	}
	// QFT|0⟩ is a product state: exactly n nodes (Table I's qft sizes).
	if got := state.NodeCount(); got != 8 {
		t.Errorf("NodeCount = %d, want 8", got)
	}
	if n2 := state.Norm2(); math.Abs(n2-1) > 1e-9 {
		t.Errorf("Norm2 = %v", n2)
	}
	if _, err := state.Amplitude("bad"); err == nil {
		t.Error("expected error for invalid bitstring")
	}
	if _, err := state.AmplitudeAt(1 << 20); err == nil {
		t.Error("expected error for out-of-range index")
	}
	if p, err := state.Probability("00000000"); err != nil || math.Abs(p-1.0/256) > 1e-9 {
		t.Errorf("Probability(0...0) = %v, %v; want 1/256", p, err)
	}
}

func TestMemoryOutSurfaced(t *testing.T) {
	// A 30-qubit state with a 10-qubit vector budget: MethodPrefix must
	// report MO while MethodDD still works.
	c, _ := weaksim.GenerateBenchmark("qft_30")
	state, err := weaksim.Simulate(c, weaksim.WithVectorBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := state.Sampler(weaksim.WithMethod(weaksim.MethodPrefix)); !errors.Is(err, weaksim.ErrMemoryOut) {
		t.Errorf("expected ErrMemoryOut from prefix sampler, got %v", err)
	}
	sampler, err := state.Sampler(weaksim.WithMethod(weaksim.MethodDD))
	if err != nil {
		t.Fatalf("DD sampler should not need dense memory: %v", err)
	}
	if shot := sampler.Shot(); len(shot) != 30 {
		t.Errorf("shot width %d, want 30", len(shot))
	}
}

func TestParseMethod(t *testing.T) {
	for _, m := range []weaksim.Method{weaksim.MethodDD, weaksim.MethodPrefix, weaksim.MethodLinear, weaksim.MethodAlias} {
		got, err := weaksim.ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := weaksim.ParseMethod("bogus"); err == nil {
		t.Error("expected error for unknown method")
	}
}

func TestNormalizationOptionsAllSampleCorrectly(t *testing.T) {
	c, _ := weaksim.GenerateBenchmark("running_example")
	want := []float64{0, 3.0 / 8, 0, 3.0 / 8, 1.0 / 8, 0, 0, 1.0 / 8}
	for _, norm := range []weaksim.Norm{weaksim.NormLeft, weaksim.NormL2, weaksim.NormL2Phase} {
		state, err := weaksim.Simulate(c, weaksim.WithNormalization(norm))
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := state.Sampler(weaksim.WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		shots := 20000
		counts := sampler.CountsByIndex(shots)
		res, err := stats.ChiSquareGOF(counts, want, shots)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 1e-6 {
			t.Errorf("norm %v: p=%v", norm, res.PValue)
		}
	}
}
