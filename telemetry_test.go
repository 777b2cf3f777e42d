package weaksim_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"weaksim"
)

// runningExample rebuilds the paper's 3-qubit running example through the
// public facade.
func runningExample() *weaksim.Circuit {
	c := weaksim.NewCircuit(3, "running-example")
	c.H(0).H(1).H(2)
	c.Apply(weaksim.HGate, 2, weaksim.Pos(0), weaksim.Pos(1))
	return c
}

// TestTelemetryEndToEnd simulates the running example with metrics and a
// JSONL tracer attached and checks the full surface: phase accumulators,
// node counts, hit rates, the JSON round-trip of the Telemetry digest, and
// the JSONL validity of every trace line.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := weaksim.NewMetrics()
	var buf bytes.Buffer
	tr := weaksim.NewJSONLTracer(&buf, 1)

	st, err := weaksim.Simulate(runningExample(), weaksim.WithMetrics(reg), weaksim.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := st.Sampler(weaksim.WithMetrics(reg), weaksim.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	counts := sampler.Counts(1000)
	var total int
	for _, n := range counts {
		total += n
	}
	if total != 1000 {
		t.Fatalf("counts sum to %d, want 1000", total)
	}

	tel := st.Telemetry()
	if tel.Backend != "dd" {
		t.Errorf("backend = %q, want dd", tel.Backend)
	}
	if tel.PeakNodes <= 0 || tel.FinalStateNodes <= 0 {
		t.Errorf("node counts not populated: peak=%d final=%d", tel.PeakNodes, tel.FinalStateNodes)
	}
	for _, phase := range []string{"build", "apply", "sample"} {
		if tel.PhaseNS[phase] <= 0 {
			t.Errorf("phase %q has no accumulated time: %v", phase, tel.PhaseNS)
		}
	}
	if _, ok := tel.HitRates["unique_v"]; !ok {
		t.Errorf("unique_v hit rate missing: %v", tel.HitRates)
	}
	if tel.Counters["sim_ops_applied_total"] != 4 {
		t.Errorf("sim_ops_applied_total = %d, want 4", tel.Counters["sim_ops_applied_total"])
	}
	if tel.Counters["sample_shots_total"] != 1000 {
		t.Errorf("sample_shots_total = %d, want 1000", tel.Counters["sample_shots_total"])
	}

	// Telemetry must round-trip through encoding/json.
	b, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	var back weaksim.Telemetry
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Backend != tel.Backend || back.PeakNodes != tel.PeakNodes {
		t.Errorf("telemetry JSON round-trip mismatch: %+v vs %+v", back, tel)
	}

	// Every trace line must be valid JSON with the expected shape.
	sc := bufio.NewScanner(&buf)
	var lines, spans int
	for sc.Scan() {
		var ev weaksim.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if ev.Kind != "span" && ev.Kind != "event" {
			t.Fatalf("trace kind %q", ev.Kind)
		}
		if ev.Kind == "span" {
			spans++
		}
		lines++
	}
	if lines == 0 || spans == 0 {
		t.Fatalf("trace empty: %d lines, %d spans", lines, spans)
	}
}

// TestVectorBackendTelemetry: a dense-backed state reports backend "vector"
// with phase accumulators but no DD node counts.
func TestVectorBackendTelemetry(t *testing.T) {
	reg := weaksim.NewMetrics()
	c := weaksim.NewCircuit(2, "bell")
	c.H(0).CX(0, 1)
	st, report, err := weaksim.SimulateAuto(context.Background(), c, weaksim.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if report.Telemetry == nil {
		t.Fatal("report.Telemetry nil on the vector tier")
	}
	tel := st.Telemetry()
	if tel.Backend != "vector" {
		t.Fatalf("backend = %q, want vector", tel.Backend)
	}
	if tel.PeakNodes != 0 {
		t.Errorf("vector backend reports %d peak DD nodes", tel.PeakNodes)
	}
	if tel.PhaseNS["apply"] <= 0 {
		t.Errorf("no apply phase time recorded: %v", tel.PhaseNS)
	}
}

// TestSimulateAutoFailureTelemetry: an MO run still produces a usable
// telemetry digest (attached to the report and recoverable from the
// registry), plus govern-phase trace events describing the ladder.
func TestSimulateAutoFailureTelemetry(t *testing.T) {
	c, err := weaksim.GenerateBenchmark("qft_16")
	if err != nil {
		t.Fatal(err)
	}
	reg := weaksim.NewMetrics()
	var buf bytes.Buffer
	tr := weaksim.NewJSONLTracer(&buf, 1)
	_, report, err := weaksim.SimulateAuto(context.Background(), c,
		weaksim.WithVectorBudget(4),
		weaksim.WithNodeBudget(40),
		weaksim.WithMetrics(reg),
		weaksim.WithTracer(tr),
	)
	if !errors.Is(err, weaksim.ErrNodeBudget) {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if report == nil || report.Telemetry == nil {
		t.Fatal("failed run lost its telemetry")
	}
	if report.Telemetry.BudgetPressure == 0 {
		t.Error("budget pressure not recorded in telemetry")
	}

	// The registry-only fallback digest must agree on the headline numbers.
	sum := weaksim.SummarizeMetrics(reg)
	if sum.GCRuns != report.Telemetry.GCRuns {
		t.Errorf("SummarizeMetrics GC runs %d != report %d", sum.GCRuns, report.Telemetry.GCRuns)
	}
	if sum.PeakNodes <= 0 {
		t.Errorf("SummarizeMetrics peak nodes = %d, want > 0", sum.PeakNodes)
	}

	// Governance trace events must narrate the ladder.
	var governEvents int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev weaksim.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line: %v", err)
		}
		if ev.Phase == "govern" {
			governEvents++
		}
	}
	if governEvents == 0 {
		t.Error("no govern-phase trace events on a degrading run")
	}
}

// TestTelemetryDisabledIsFree pins the facade-level zero-cost contract: a
// State built without WithMetrics must still answer Telemetry() (from the
// manager's own stats), and sampling without a registry must not allocate
// on the per-shot path beyond the walk itself.
func TestTelemetryDisabledIsFree(t *testing.T) {
	st, err := weaksim.Simulate(runningExample())
	if err != nil {
		t.Fatal(err)
	}
	tel := st.Telemetry()
	if tel.Backend != "dd" || tel.PeakNodes <= 0 {
		t.Fatalf("registry-less telemetry incomplete: %+v", tel)
	}
	if tel.PhaseNS != nil {
		t.Errorf("phase timings present without a registry: %v", tel.PhaseNS)
	}
	sampler, err := st.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = sampler.ShotIndex() }); allocs != 0 {
		t.Errorf("ShotIndex allocates %v/op without telemetry, want 0", allocs)
	}
}
