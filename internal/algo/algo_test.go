package algo

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"weaksim/internal/circuit"
	"weaksim/internal/gate"
	"weaksim/internal/sim"
)

func runDense(t *testing.T, c *circuit.Circuit) []float64 {
	t.Helper()
	s, err := sim.NewVector(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st.Probabilities()
}

func TestQFTOnZeroIsUniform(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		probs := runDense(t, QFT(n))
		want := 1 / float64(int(1)<<uint(n))
		for i, p := range probs {
			if math.Abs(p-want) > 1e-12 {
				t.Fatalf("qft_%d: p[%d] = %v, want %v", n, i, p, want)
			}
		}
	}
}

func TestQFTOnBasisState(t *testing.T) {
	// QFT|x⟩ must have uniform magnitudes and phases e^{2πi·x·k/2^n}.
	n := 4
	x := uint64(5)
	c := circuit.New(n, "qft_input")
	for q := 0; q < n; q++ {
		if x>>uint(q)&1 == 1 {
			c.X(q)
		}
	}
	AppendQFT(c, 0, n)
	s, _ := sim.NewVector(c, 0)
	st, _ := s.Run()
	size := uint64(1) << uint(n)
	inv := 1 / math.Sqrt(float64(size))
	for k := uint64(0); k < size; k++ {
		amp := st.Amplitude(k)
		theta := 2 * math.Pi * float64(x*k%size) / float64(size)
		wantRe, wantIm := inv*math.Cos(theta), inv*math.Sin(theta)
		if math.Abs(amp.Re-wantRe) > 1e-9 || math.Abs(amp.Im-wantIm) > 1e-9 {
			t.Fatalf("QFT|%d⟩ amplitude %d = %v, want (%v, %v)", x, k, amp, wantRe, wantIm)
		}
	}
}

func TestInverseQFTInvertsQFT(t *testing.T) {
	n := 5
	c := circuit.New(n, "qft_roundtrip")
	// Nontrivial input.
	c.X(0).X(3).H(2)
	AppendQFT(c, 0, n)
	AppendInverseQFT(c, 0, n)
	s, _ := sim.NewVector(c, 0)
	st, _ := s.Run()

	ref := circuit.New(n, "ref")
	ref.X(0).X(3).H(2)
	rs, _ := sim.NewVector(ref, 0)
	rst, _ := rs.Run()

	dev, err := st.MaxDeviationFrom(rst)
	if err != nil {
		t.Fatal(err)
	}
	if dev > 1e-9 {
		t.Errorf("QFT∘QFT⁻¹ deviates from identity by %v", dev)
	}
}

func TestGroverConcentratesOnMarked(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		c, marked := Grover(n, 42)
		probs := runDense(t, c)
		// Sum the probability of the marked search-register value over
		// both ancilla branches.
		anc := uint64(1) << uint(n)
		pMarked := probs[marked] + probs[marked|anc]
		if pMarked < 0.9 {
			t.Errorf("grover_%d: marked element probability %v, want > 0.9", n, pMarked)
		}
	}
}

func TestGroverIterations(t *testing.T) {
	if got := GroverIterations(4); got != 3 {
		t.Errorf("GroverIterations(4) = %d, want 3", got)
	}
	if got := GroverIterations(10); got != 25 {
		t.Errorf("GroverIterations(10) = %d, want 25", got)
	}
}

func TestGroverDeterministicPerSeed(t *testing.T) {
	_, m1 := Grover(6, 7)
	_, m2 := Grover(6, 7)
	if m1 != m2 {
		t.Error("same seed produced different marked elements")
	}
}

// refGrover builds GroverFor's circuit op by op through the circuit API,
// each multi-controlled gate with its own control slice: the reference
// the presized construction must match.
func refGrover(n int, marked uint64) *circuit.Circuit {
	c := circuit.New(n+1, "grover_"+strconv.Itoa(n))
	c.X(n).H(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	c.Barrier()
	for it := 0; it < GroverIterations(n); it++ {
		oracle := make([]gate.Control, n)
		for q := range oracle {
			oracle[q] = gate.Control{Qubit: q, Negative: marked>>uint(q)&1 == 0}
		}
		c.Apply(gate.XGate, n, oracle...)
		for q := 0; q < n; q++ {
			c.H(q)
		}
		for q := 0; q < n; q++ {
			c.X(q)
		}
		diffusion := make([]gate.Control, n-1)
		for q := range diffusion {
			diffusion[q] = gate.Pos(q)
		}
		c.Apply(gate.ZGate, n-1, diffusion...)
		for q := 0; q < n; q++ {
			c.X(q)
		}
		for q := 0; q < n; q++ {
			c.H(q)
		}
		c.Barrier()
	}
	return c
}

// TestGroverForPresized: GroverFor allocates its ops and their controls
// once each, fills them exactly, and builds the same ops as the reference.
func TestGroverForPresized(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 12} {
		marked := uint64(0b1011_0110_1101) & (1<<uint(n) - 1)
		got, want := GroverFor(n, marked), refGrover(n, marked)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("grover_%d: ops differ from the reference construction", n)
		}
		if len(got.Ops) != cap(got.Ops) {
			t.Errorf("grover_%d: %d ops in a capacity of %d", n, len(got.Ops), cap(got.Ops))
		}
		for i, op := range got.Ops {
			if len(op.Controls) != cap(op.Controls) {
				t.Fatalf("grover_%d op %d: controls window is not capped", n, i)
			}
		}
	}
	// The name, the circuit, its ops and the control slab; 118 allocations
	// when every op was appended to a growing slice.
	if a := testing.AllocsPerRun(5, func() { GroverFor(12, 2893) }); a > 5 {
		t.Errorf("GroverFor(12) allocates %v times, want at most 5", a)
	}
}

func TestNumberTheoryHelpers(t *testing.T) {
	if g := GCD(12, 18); g != 6 {
		t.Errorf("GCD(12,18) = %d", g)
	}
	if g := GCD(17, 5); g != 1 {
		t.Errorf("GCD(17,5) = %d", g)
	}
	if p := ModPow(2, 10, 1000); p != 24 {
		t.Errorf("ModPow(2,10,1000) = %d", p)
	}
	if p := ModPow(7, 0, 13); p != 1 {
		t.Errorf("ModPow(7,0,13) = %d", p)
	}
	if r, err := MultiplicativeOrder(2, 15); err != nil || r != 4 {
		t.Errorf("order(2 mod 15) = %d, %v; want 4", r, err)
	}
	if r, err := MultiplicativeOrder(7, 15); err != nil || r != 4 {
		t.Errorf("order(7 mod 15) = %d, %v; want 4", r, err)
	}
	if _, err := MultiplicativeOrder(6, 15); err == nil {
		t.Error("expected error for non-unit")
	}
	if BitLen(33) != 6 || BitLen(15) != 4 || BitLen(1) != 1 {
		t.Error("BitLen wrong")
	}
}

func TestContinuedFractions(t *testing.T) {
	// 3/8 has convergents 0/1, 1/2, 1/3, 3/8 → denominators 2, 3, 8
	// (after the leading integer part).
	dens := ContinuedFractionDenominators(3, 8, 100)
	want := map[uint64]bool{}
	for _, d := range dens {
		want[d] = true
	}
	if !want[8] {
		t.Errorf("expected denominator 8 among convergents of 3/8, got %v", dens)
	}
}

func TestShorMeasurementDistribution(t *testing.T) {
	// For N=15, a=2 the order is 4, so the counting register (8 bits)
	// concentrates on multiples of 2^8/4 = 64: y ∈ {0, 64, 128, 192}.
	c, err := Shor(15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NQubits != 12 {
		t.Fatalf("shor_15_2 has %d qubits, want 12", c.NQubits)
	}
	probs := runDense(t, c)
	work, count := ShorCountingBits(15)
	if work != 4 || count != 8 {
		t.Fatalf("ShorCountingBits(15) = %d, %d", work, count)
	}
	peaks := make(map[uint64]float64)
	for i, p := range probs {
		y := uint64(i) >> uint(work)
		peaks[y] += p
	}
	var onPeaks float64
	for _, y := range []uint64{0, 64, 128, 192} {
		onPeaks += peaks[y]
	}
	if onPeaks < 0.999 {
		t.Errorf("probability on exact phase peaks = %v, want ~1 (order divides 2^count)", onPeaks)
	}
}

func TestShorFactorExtraction(t *testing.T) {
	// y = 64 corresponds to phase 1/4 → order 4 → factors gcd(2²±1, 15).
	if f := FactorFromMeasurement(15, 2, 64, 8); f != 3 && f != 5 {
		t.Errorf("FactorFromMeasurement(15,2,64) = %d, want 3 or 5", f)
	}
	if f := FactorFromMeasurement(15, 2, 0, 8); f != 0 {
		t.Errorf("uninformative measurement should return 0, got %d", f)
	}
	// N=21, a=2: order 6; 2^3 = 8, gcd(7,21)=7, gcd(9,21)=3.
	count := 2 * BitLen(21)
	y := uint64(1) << uint(count) / 6 // nearest integer to (1/6)·2^10 (truncated)
	found := false
	for dy := uint64(0); dy <= 1; dy++ {
		if f := FactorFromMeasurement(21, 2, y+dy, count); f == 3 || f == 7 {
			found = true
		}
	}
	if !found {
		t.Error("failed to extract factor of 21 from near-peak measurement")
	}
}

func TestShorValidation(t *testing.T) {
	if _, err := Shor(15, 5); err == nil {
		t.Error("expected error for non-coprime base")
	}
	if _, err := Shor(15, 1); err == nil {
		t.Error("expected error for base 1")
	}
	if _, err := Shor(2, 1); err == nil {
		t.Error("expected error for tiny N")
	}
}

func TestJelliumStructure(t *testing.T) {
	c, err := Jellium(JelliumParams{Grid: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.NQubits != 8 {
		t.Errorf("jellium_2x2 has %d qubits, want 8", c.NQubits)
	}
	c3, err := Jellium(JelliumParams{Grid: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c3.NQubits != 18 {
		t.Errorf("jellium_3x3 has %d qubits, want 18", c3.NQubits)
	}
	if _, err := Jellium(JelliumParams{Grid: 1}); err == nil {
		t.Error("expected error for 1x1 grid")
	}
}

func TestJelliumConservesParticleNumber(t *testing.T) {
	// Hopping and interaction conserve the particle number: every basis
	// state with non-zero probability must have exactly A² set bits (half
	// filling).
	c, _ := Jellium(JelliumParams{Grid: 2})
	probs := runDense(t, c)
	var leaked float64
	for i, p := range probs {
		if popcount(uint64(i)) != 4 {
			leaked += p
		}
	}
	if leaked > 1e-9 {
		t.Errorf("probability leaked outside the half-filled sector: %v", leaked)
	}
}

func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func TestHoppingMatchesReferenceMatrix(t *testing.T) {
	theta := 0.7
	c := circuit.New(2, "hop")
	AppendHopping(c, theta, 0, 1)
	ref := JelliumHoppingMatrix(theta)
	// Apply the circuit to each basis state and compare columns.
	for col := 0; col < 4; col++ {
		cc := circuit.New(2, "hopcol")
		if col&1 != 0 {
			cc.X(0)
		}
		if col&2 != 0 {
			cc.X(1)
		}
		AppendHopping(cc, theta, 0, 1)
		s, _ := sim.NewVector(cc, 0)
		st, _ := s.Run()
		for row := 0; row < 4; row++ {
			got := st.Amplitude(uint64(row)).ToComplex128()
			want := ref[row][col]
			if d := got - want; math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Errorf("hopping[%d][%d] = %v, want %v", row, col, got, want)
			}
		}
	}
}

func TestSupremacyStructure(t *testing.T) {
	c, err := Supremacy(SupremacyParams{Rows: 4, Cols: 4, Depth: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.NQubits != 16 {
		t.Errorf("4x4 grid has %d qubits, want 16", c.NQubits)
	}
	counts := c.GateCounts()
	if counts["h"] != 16 {
		t.Errorf("initial Hadamard layer has %d gates, want 16", counts["h"])
	}
	if counts["cz"] == 0 {
		t.Error("no CZ gates generated")
	}
	if counts["t"] == 0 {
		t.Error("no T gates generated")
	}
	// Determinism per seed.
	c2, _ := Supremacy(SupremacyParams{Rows: 4, Cols: 4, Depth: 10, Seed: 1})
	if len(c.Ops) != len(c2.Ops) {
		t.Error("same seed produced different circuits")
	}
	if _, err := Supremacy(SupremacyParams{Rows: 1, Cols: 4, Depth: 10}); err == nil {
		t.Error("expected error for 1-row grid")
	}
	if _, err := Supremacy(SupremacyParams{Rows: 2, Cols: 2, Depth: 0}); err == nil {
		t.Error("expected error for zero depth")
	}
}

func TestSupremacyCoversAllBonds(t *testing.T) {
	// Over 8 consecutive cycles the CZ patterns must touch every grid bond.
	c, _ := Supremacy(SupremacyParams{Rows: 3, Cols: 4, Depth: 8, Seed: 1})
	bonds := make(map[[2]int]bool)
	for _, op := range c.Ops {
		if op.Kind == circuit.GateOp && op.Gate.Name() == "z" && len(op.Controls) == 1 {
			a, b := op.Controls[0].Qubit, op.Target
			if a > b {
				a, b = b, a
			}
			bonds[[2]int{a, b}] = true
		}
	}
	wantBonds := 0
	for r := 0; r < 3; r++ {
		for col := 0; col < 4; col++ {
			if col+1 < 4 {
				wantBonds++
			}
			if r+1 < 3 {
				wantBonds++
			}
		}
	}
	if len(bonds) != wantBonds {
		t.Errorf("8 cycles cover %d distinct bonds, want all %d", len(bonds), wantBonds)
	}
}

func TestRunningExampleProbabilities(t *testing.T) {
	probs := runDense(t, RunningExample())
	want := RunningExampleProbabilities()
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Errorf("p[%d] = %v, want %v", i, probs[i], want[i])
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range TableIBenchmarks() {
		if name == "qft_32" || name == "qft_48" || name == "grover_35" ||
			name == "grover_25" || name == "grover_30" ||
			name == "supremacy_5x4_10" || name == "supremacy_5x5_10" ||
			name == "shor_221_4" || name == "shor_247_4" {
			continue // expensive instances are exercised by the bench harness
		}
		c, err := Generate(name)
		if err != nil {
			t.Errorf("Generate(%q): %v", name, err)
			continue
		}
		if c.Name != name {
			t.Errorf("Generate(%q) produced circuit named %q", name, c.Name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Generate(%q): invalid circuit: %v", name, err)
		}
	}
	for _, bad := range []string{"", "nope", "qft_x", "shor_15", "jellium_2x3", "supremacy_4x4"} {
		if _, err := Generate(bad); err == nil {
			t.Errorf("Generate(%q) should fail", bad)
		}
	}
}

func TestRegistryQubitCounts(t *testing.T) {
	// Table I qubit counts must match the paper exactly.
	cases := map[string]int{
		"qft_16":           16,
		"grover_20":        21,
		"shor_33_2":        18,
		"shor_55_2":        18,
		"shor_69_4":        21,
		"jellium_2x2":      8,
		"jellium_3x3":      18,
		"supremacy_4x4_10": 16,
	}
	for name, want := range cases {
		c, err := Generate(name)
		if err != nil {
			t.Errorf("Generate(%q): %v", name, err)
			continue
		}
		if c.NQubits != want {
			t.Errorf("%s: %d qubits, want %d (paper Table I)", name, c.NQubits, want)
		}
	}
}
