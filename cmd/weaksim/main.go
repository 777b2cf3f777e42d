// Command weaksim runs weak simulation end to end: it builds a benchmark
// circuit (or reads OpenQASM 2.0), strongly simulates it on the decision-
// diagram backend, and prints measurement samples — the output a physical
// quantum computer would produce.
//
// Usage:
//
//	weaksim -bench qft_16 -shots 20 -seed 7
//	weaksim -bench shor_33_2 -shots 1000 -top 8
//	weaksim -qasm circuit.qasm -method prefix -shots 100
//	weaksim -bench running_example -render -histogram
//	weaksim -bench qft_20 -shots 100000 -verify      # chi-square self-check
//	weaksim -bench shor_55_2 -exact-top 8 -shots 0   # exact modes, no sampling
//	weaksim -bench running_example -dot state.dot    # Graphviz of the DD
//
// Telemetry:
//
//	weaksim -bench qft_32 -metrics-out run.json      # per-phase timings, peak
//	                                                 # nodes, cache hit rates
//	weaksim -bench grover_20 -trace-out run.jsonl -trace-every 100
//	weaksim -bench supremacy_4x4_10 -debug-addr localhost:6060
//	                                                 # live /metrics + pprof
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"weaksim"
	"weaksim/internal/circuit/qasm"
	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/stats"
)

// Exit codes. Resource exhaustion and timeouts are distinguishable so
// harnesses can record the paper's "MO"/"TO" cells from the exit status.
const (
	exitOK      = 0
	exitError   = 1 // any other failure
	exitUsage   = 2 // bad flags or arguments (flag package also uses 2)
	exitMO      = 3 // memory out: vector budget or DD node budget exceeded
	exitTimeout = 4 // timed out or cancelled (-timeout)
)

// errUsage marks command-line usage errors (exit code 2).
var errUsage = errors.New("usage error")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "weaksim:", err)
	}
	os.Exit(exitCode(err))
}

func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case weaksim.IsMemoryOut(err):
		return exitMO
	case weaksim.IsTimeout(err):
		return exitTimeout
	case errors.Is(err, errUsage):
		return exitUsage
	default:
		return exitError
	}
}

// exitLabel names an exit code the way the paper's Table I does.
func exitLabel(code int) string {
	switch code {
	case exitOK:
		return "ok"
	case exitMO:
		return "MO"
	case exitTimeout:
		return "TO"
	case exitUsage:
		return "usage"
	default:
		return "error"
	}
}

// metricsFile is the -metrics-out JSON document: run identity, outcome, and
// the telemetry digest (per-phase durations, peak nodes, hit rates, full
// counter dump). It is written on every exit path once the circuit loaded —
// MO and TO runs included, so harnesses can mine failed rows.
type metricsFile struct {
	Circuit   string             `json:"circuit"`
	Qubits    int                `json:"qubits"`
	Ops       int                `json:"ops"`
	Depth     int                `json:"depth"`
	Method    string             `json:"method"`
	Norm      string             `json:"norm"`
	Shots     int                `json:"shots"`
	Seed      uint64             `json:"seed"`
	Status    string             `json:"status"` // ok | MO | TO | error
	Error     string             `json:"error,omitempty"`
	Telemetry *weaksim.Telemetry `json:"telemetry"`
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("weaksim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench      = fs.String("bench", "", "benchmark name (qft_A, grover_A, shor_N_a, jellium_AxA, supremacy_AxB_D, running_example)")
		qasmFile   = fs.String("qasm", "", "OpenQASM 2.0 file to simulate instead of a named benchmark")
		shots      = fs.Int("shots", 16, "number of measurement samples to draw")
		seed       = fs.Uint64("seed", 1, "random seed (equal seeds reproduce samples exactly)")
		workers    = fs.Int("workers", 1, "worker goroutines for batch sampling over the frozen state snapshot (0 = GOMAXPROCS); counts do not depend on the worker count")
		method     = fs.String("method", "dd", "sampling method: dd, prefix, linear, or alias")
		norm       = fs.String("norm", "l2phase", "DD normalization scheme: l2phase or left")
		top        = fs.Int("top", 0, "print only the k most frequent outcomes as a histogram")
		histogram  = fs.Bool("histogram", false, "aggregate shots into a histogram instead of listing them")
		render     = fs.Bool("render", false, "print the circuit diagram before simulating")
		showStats  = fs.Bool("stats", true, "print state size and timing statistics")
		budget     = fs.Int("vector-budget", 0, "max qubits for dense sampling methods (0 = default 26)")
		verify     = fs.Bool("verify", false, "chi-square the samples against the exact distribution (needs the state to fit the vector budget)")
		dotFile    = fs.String("dot", "", "write the final state's decision diagram as Graphviz DOT to this file")
		exactTop   = fs.Int("exact-top", 0, "print the k most probable outcomes exactly (no sampling, works beyond the vector budget)")
		list       = fs.Bool("list", false, "list the paper's Table I benchmark names and exit")
		timeout    = fs.Duration("timeout", 0, "bound total wall-clock time; exceeding it exits with code 4 (TO)")
		ddBudget   = fs.Int("dd-node-budget", 0, "max live decision-diagram nodes; exceeding it exits with code 3 (MO). 0 = unlimited")
		auto       = fs.Bool("auto", false, "use the degradation planner: vector backend first, DD on MO, approximation under -min-fidelity")
		minFid     = fs.Float64("min-fidelity", 0, "with -auto: allow DD approximation under node-budget pressure down to this fidelity floor (0 = exact only)")
		metricsOut = fs.String("metrics-out", "", "write a machine-readable telemetry summary (phase timings, peak nodes, cache hit rates) as JSON to this file; written even on MO/TO")
		traceOut   = fs.String("trace-out", "", "write structured trace events (phase spans, per-op events, GC, governance steps) as JSONL to this file")
		traceEvery = fs.Int("trace-every", 1, "with -trace-out: emit one op event per N applied ops (phase spans are never throttled)")
		debugAddr  = fs.String("debug-addr", "", "serve live Prometheus /metrics, expvar /debug/vars, and /debug/pprof on this address while running")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of weaksim:\n")
		fs.PrintDefaults()
		fmt.Fprint(fs.Output(), `
Exit codes:
  0  success
  1  simulation error
  2  usage error
  3  resource budget exceeded — vector memory or DD node budget (the paper's MO)
  4  timed out under -timeout (the paper's TO)
`)
	}
	if perr := fs.Parse(args); perr != nil {
		return fmt.Errorf("%w: %v", errUsage, perr)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, name := range weaksim.TableIBenchmarks() {
			fmt.Fprintln(stdout, name)
		}
		fmt.Fprintln(stdout, "(plus: qpe via the API; ghz_A, wstate_A, bv_A, dj_A_constant,")
		fmt.Fprintln(stdout, " dj_A_balanced, shor_gates_N_a, running_example, figure1)")
		return nil
	}

	c, err := loadCircuit(*bench, *qasmFile)
	if err != nil {
		return err
	}
	if *render {
		fmt.Fprint(stdout, c.Render())
	}

	m, err := weaksim.ParseMethod(*method)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	normScheme, err := dd.ParseNorm(*norm)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	// Telemetry attachments. The registry exists whenever any export
	// surface wants it; the tracer only with -trace-out.
	var reg *weaksim.Metrics
	if *metricsOut != "" || *debugAddr != "" {
		reg = weaksim.NewMetrics()
	}
	var tracer *weaksim.Tracer
	if *traceOut != "" {
		tf, terr := os.Create(*traceOut)
		if terr != nil {
			return terr
		}
		defer func() {
			if cerr := tf.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		tracer = weaksim.NewJSONLTracer(tf, *traceEvery)
	}
	if *debugAddr != "" {
		reg.PublishExpvar("weaksim")
		srv, serr := weaksim.ServeDebug(*debugAddr, reg)
		if serr != nil {
			return serr
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "debug server: http://%s/metrics (+ /debug/pprof, /debug/vars)\n", srv.Addr)
	}

	var state *weaksim.State
	var report *weaksim.RunReport
	if *metricsOut != "" {
		// Written on every exit path from here on — MO/TO/error included —
		// so the telemetry of failed rows survives.
		defer func() {
			werr := writeMetricsFile(*metricsOut, metricsFile{
				Circuit: c.Name, Qubits: c.NQubits, Ops: c.NumOps(), Depth: c.Depth(),
				Method: m.String(), Norm: normScheme.String(), Shots: *shots, Seed: *seed,
				Status:    exitLabel(exitCode(err)),
				Error:     errString(err),
				Telemetry: pickTelemetry(state, report, reg),
			})
			if werr != nil && err == nil {
				err = werr
			}
		}()
	}

	opts := []weaksim.Option{
		weaksim.WithSeed(*seed),
		weaksim.WithMethod(m),
		weaksim.WithNormalization(normScheme),
		weaksim.WithWorkers(*workers),
		weaksim.WithMetrics(reg),
		weaksim.WithTracer(tracer),
	}
	if *budget > 0 {
		opts = append(opts, weaksim.WithVectorBudget(*budget))
	}
	if *ddBudget > 0 {
		opts = append(opts, weaksim.WithNodeBudget(*ddBudget))
	}
	if *minFid > 0 {
		opts = append(opts, weaksim.WithMinFidelity(*minFid))
	}

	start := time.Now()
	if *auto {
		state, report, err = weaksim.SimulateAuto(ctx, c, opts...)
		if report != nil && *showStats {
			fmt.Fprintln(stderr, report)
		}
	} else {
		state, err = weaksim.SimulateContext(ctx, c, opts...)
	}
	if err != nil {
		return fmt.Errorf("strong simulation: %w", err)
	}
	simTime := time.Since(start)

	if *exactTop > 0 {
		top, terr := state.TopOutcomes(*exactTop)
		if terr != nil {
			return terr
		}
		for _, o := range top {
			fmt.Fprintf(stdout, "%s  %.6g\n", o.Bits, o.Probability)
		}
	}

	if *dotFile != "" {
		f, ferr := os.Create(*dotFile)
		if ferr != nil {
			return ferr
		}
		if werr := state.WriteDOT(f, c.Name); werr != nil {
			f.Close()
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
	}

	start = time.Now()
	sampler, err := state.Sampler()
	if err != nil {
		return fmt.Errorf("sampler setup: %w", err)
	}
	setupTime := time.Since(start)

	start = time.Now()
	var indexCounts map[uint64]int
	switch {
	case *verify:
		indexCounts, err = sampler.CountsByIndexContext(ctx, *shots)
		if err != nil {
			return fmt.Errorf("sampling: %w", err)
		}
		if *histogram || *top > 0 {
			printHistogram(stdout, core.BitstringCounts(indexCounts, c.NQubits), *shots, *top)
		}
	case *histogram || *top > 0:
		counts, cerr := sampler.CountsContext(ctx, *shots)
		if cerr != nil {
			return fmt.Errorf("sampling: %w", cerr)
		}
		printHistogram(stdout, counts, *shots, *top)
	default:
		for i := 0; i < *shots; i++ {
			if i%core.CtxCheckShots == 0 && ctx.Err() != nil {
				return fmt.Errorf("sampling: interrupted after %d/%d shots: %w", i, *shots, ctx.Err())
			}
			fmt.Fprintln(stdout, sampler.Shot())
		}
	}
	sampleTime := time.Since(start)

	if *verify {
		probs, perr := state.Probabilities()
		if perr != nil {
			return fmt.Errorf("verification needs the exact distribution: %w", perr)
		}
		res, serr := stats.ChiSquareGOF(indexCounts, probs, *shots)
		if serr != nil {
			return serr
		}
		verdict := "indistinguishable from the exact distribution"
		if res.PValue < 0.001 {
			verdict = "REJECTED at significance 0.001"
		}
		fmt.Fprintf(stderr, "chi-square: stat=%.2f dof=%d p=%.4g — samples %s\n",
			res.Statistic, res.DoF, res.PValue, verdict)
	}

	if *showStats {
		fmt.Fprintf(stderr, "circuit %s: %d qubits, %d ops, depth %d\n", c.Name, c.NQubits, c.NumOps(), c.Depth())
		fmt.Fprintf(stderr, "final state: %d DD nodes (state space 2^%d)\n", state.NodeCount(), c.NQubits)
		if n := sampler.SnapshotNodes(); n > 0 {
			fmt.Fprintf(stderr, "frozen snapshot: %d nodes, %d sampling workers\n", n, sampler.Workers())
		}
		fmt.Fprintf(stderr, "strong simulation %v, sampler setup %v, %d samples %v (%s method)\n",
			simTime.Round(time.Microsecond), setupTime.Round(time.Microsecond),
			*shots, sampleTime.Round(time.Microsecond), m)
	}
	return nil
}

// pickTelemetry chooses the richest telemetry source that survived the run:
// the final state, the governance report, or the bare registry.
func pickTelemetry(state *weaksim.State, report *weaksim.RunReport, reg *weaksim.Metrics) *weaksim.Telemetry {
	switch {
	case state != nil:
		return state.Telemetry()
	case report != nil && report.Telemetry != nil:
		return report.Telemetry
	default:
		return weaksim.SummarizeMetrics(reg)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func writeMetricsFile(path string, doc metricsFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadCircuit(bench, qasmFile string) (*weaksim.Circuit, error) {
	switch {
	case bench != "" && qasmFile != "":
		return nil, fmt.Errorf("%w: pass either -bench or -qasm, not both", errUsage)
	case bench != "":
		return weaksim.GenerateBenchmark(bench)
	case qasmFile != "":
		src, err := os.ReadFile(qasmFile)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(qasmFile, ".qasm")
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		return qasm.Parse(string(src), name)
	default:
		return nil, fmt.Errorf("%w: pass -bench <name> or -qasm <file>; available benchmarks include %s",
			errUsage, strings.Join(weaksim.TableIBenchmarks(), ", "))
	}
}

func printHistogram(w io.Writer, counts map[string]int, shots, top int) {
	type entry struct {
		bits string
		n    int
	}
	entries := make([]entry, 0, len(counts))
	for bits, n := range counts {
		entries = append(entries, entry{bits, n})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].n != entries[j].n {
			return entries[i].n > entries[j].n
		}
		return entries[i].bits < entries[j].bits
	})
	if top > 0 && top < len(entries) {
		entries = entries[:top]
	}
	for _, e := range entries {
		frac := float64(e.n) / float64(shots)
		bar := strings.Repeat("#", int(frac*50+0.5))
		fmt.Fprintf(w, "%s %8d  %6.2f%% %s\n", e.bits, e.n, 100*frac, bar)
	}
}
