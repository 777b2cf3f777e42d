// Command benchtable regenerates the paper's Table I: runtime and memory
// for error-free sampling of one million bitstrings, comparing vector-based
// sampling (prefix sums + binary search, Section III) against DD-based
// sampling (randomized diagram traversal, Section IV).
//
// Following the paper's flow, each benchmark is strongly simulated once on
// the decision-diagram backend; the vector-based column then expands that
// state into an explicit array (when it fits the memory budget — otherwise
// the row reports MO, exactly like the paper), while the DD-based column
// samples the diagram directly.
//
// Usage:
//
//	benchtable                      # the default row set that fits this machine
//	benchtable -rows all            # every Table I row (hours of CPU)
//	benchtable -rows qft_16,qft_32  # specific rows
//	benchtable -shots 1000000       # the paper's sample count (default)
//	benchtable -json-out auto       # also write BENCH_<timestamp>.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"weaksim/internal/algo"
	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtable:", err)
		os.Exit(1)
	}
}

// fastRows are the Table I rows whose strong simulation completes in
// reasonable time on a single-core machine. The remaining rows (grover_25+
// with their tens of thousands of iterations, supremacy_5x4_10 and
// supremacy_5x5_10 with their multi-million-node diagrams, shor_221_4,
// shor_247_4) run with -rows all or by name.
var fastRows = []string{
	"qft_16", "qft_32", "qft_48",
	"grover_20",
	"shor_33_2", "shor_55_2", "shor_69_4",
	"jellium_2x2", "jellium_3x3",
	"supremacy_4x4_10",
}

// benchRow is the machine-readable form of one Table I row, serialized into
// the BENCH_<timestamp>.json document written by -json-out. String status
// fields use "ok", "MO", or "TO" with the same semantics as the printed
// table.
type benchRow struct {
	Name   string `json:"name"`
	Qubits int    `json:"qubits"`
	Ops    int    `json:"ops"`

	// Status is the row-level outcome: "ok" when strong simulation
	// completed, "MO"/"TO" when it was budgeted out (then the per-column
	// fields are absent), "error" otherwise.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	SimSeconds float64 `json:"sim_seconds,omitempty"`
	PeakNodes  int     `json:"peak_nodes,omitempty"`
	StateNodes int     `json:"state_nodes,omitempty"`

	// VectorStatus / DDStatus are the per-column outcomes ("ok", "MO",
	// "TO"); the corresponding seconds are set only on "ok".
	VectorStatus  string  `json:"vector_status,omitempty"`
	VectorSeconds float64 `json:"vector_seconds,omitempty"`

	// DD column: FreezeSeconds is the one-off cost of converting the live
	// diagram into the immutable flat-array snapshot; DDFrozenSeconds covers
	// the shot batch drawn by lock-free walks over the snapshot (sharded
	// across -workers goroutines when set).
	FreezeSeconds   float64 `json:"freeze_seconds,omitempty"`
	DDFrozenStatus  string  `json:"dd_frozen_status,omitempty"`
	DDFrozenSeconds float64 `json:"dd_frozen_seconds,omitempty"`

	// HitRates maps cache kind → hit rate in [0,1] after strong
	// simulation: unique_v, unique_m, cache_mul, cache_add.
	HitRates map[string]float64 `json:"hit_rates,omitempty"`

	// Storage-engine health after strong simulation: mean open-addressing
	// probe length per unique-table lookup, direct-mapped compute-cache
	// entries overwritten by collisions, node slabs allocated by the arenas,
	// and arena slots recycled by GC and awaiting reuse.
	UniqueProbeLen float64 `json:"unique_probe_len,omitempty"`
	CacheEvictions uint64  `json:"cache_evictions,omitempty"`
	ArenaSlabs     int     `json:"arena_slabs,omitempty"`
	FreelistLen    int     `json:"freelist_len,omitempty"`
}

// benchDoc is the top-level BENCH_*.json document.
type benchDoc struct {
	GeneratedAt string     `json:"generated_at"`
	Shots       int        `json:"shots"`
	Seed        uint64     `json:"seed"`
	Norm        string     `json:"norm"`
	VecBudget   int        `json:"vector_budget_qubits"`
	DDBudget    int        `json:"dd_node_budget,omitempty"`
	TimeoutNS   int64      `json:"timeout_ns,omitempty"`
	Workers     int        `json:"workers"`
	Rows        []benchRow `json:"rows"`
}

func run() error {
	var (
		rows     = flag.String("rows", "fast", `"fast", "all", or a comma-separated list of Table I rows`)
		shots    = flag.Int("shots", 1000000, "samples per row (paper: one million)")
		seed     = flag.Uint64("seed", 1, "sampling seed")
		budget   = flag.Int("vector-budget", 26, "max log2(state vector entries) for the vector-based column; larger rows report MO")
		norm     = flag.String("norm", "l2phase", "DD normalization scheme: left, l2, or l2phase")
		timeout  = flag.Duration("timeout", 0, "per-row wall-clock bound; rows exceeding it report TO like the paper (0 = none)")
		ddBudget = flag.Int("dd-node-budget", 0, "max live DD nodes per row; rows exceeding it report MO in the DD columns (0 = unlimited)")
		workers  = flag.Int("workers", 1, "worker goroutines for the frozen-snapshot sampling column (0 = GOMAXPROCS)")
		jsonOut  = flag.String("json-out", "", `write a machine-readable run summary to this path ("auto" = BENCH_<timestamp>.json)`)
	)
	flag.Parse()

	var names []string
	switch *rows {
	case "fast":
		names = fastRows
	case "all":
		names = algo.TableIBenchmarks()
	default:
		names = strings.Split(*rows, ",")
	}
	normScheme, err := dd.ParseNorm(*norm)
	if err != nil {
		return err
	}
	// Resolve (and probe) the JSON output path up front: a doomed -json-out
	// must fail before hours of benchmarking, not after, and an "auto" name
	// is pinned at startup so the announced target matches the file written.
	jsonPath, err := resolveJSONOut(*jsonOut, time.Now())
	if err != nil {
		return err
	}

	fmt.Printf("Table I reproduction: error-free sampling of %d bitstrings (seed %d, norm %s)\n",
		*shots, *seed, normScheme)
	fmt.Printf("vector budget: 2^%d entries; larger rows report MO as in the paper\n", *budget)
	if *ddBudget > 0 {
		fmt.Printf("DD node budget: %d live nodes; rows exceeding it report MO in the DD columns\n", *ddBudget)
	}
	if *timeout > 0 {
		fmt.Printf("per-row timeout: %v; rows exceeding it report TO\n", *timeout)
	}
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("DD column: freeze-then-sample over the immutable snapshot, %d worker(s)\n", nWorkers)
	fmt.Println()
	fmt.Printf("%-18s %6s | %8s %10s | %12s %9s | %9s %6s\n",
		"benchmark", "qubits", "vec size", "vec t[s]", "DD size", "DD t[s]", "sim t[s]", "probe")
	fmt.Println(strings.Repeat("-", 94))

	doc := benchDoc{
		GeneratedAt: time.Now().Format(time.RFC3339),
		Shots:       *shots,
		Seed:        *seed,
		Norm:        normScheme.String(),
		VecBudget:   *budget,
		DDBudget:    *ddBudget,
		TimeoutNS:   int64(*timeout),
		Workers:     nWorkers,
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		row, err := runRow(name, *shots, *seed, *budget, *ddBudget, nWorkers, *timeout, normScheme)
		if err != nil {
			fmt.Printf("%-18s ERROR: %v\n", name, err)
			row = benchRow{Name: name, Status: "error", Error: err.Error()}
		}
		doc.Rows = append(doc.Rows, row)
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, &doc); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d rows)\n", jsonPath, len(doc.Rows))
	}
	return nil
}

// resolveJSONOut turns the -json-out argument into a concrete file path at
// startup. A basename of "auto" expands to BENCH_<timestamp>.json inside the
// requested directory (so "results/auto" lands in results/, not in a file
// literally named "auto"). The target directory is validated and probed for
// writability immediately — an unwritable destination fails the run before
// any benchmarking happens.
func resolveJSONOut(arg string, now time.Time) (string, error) {
	if arg == "" {
		return "", nil
	}
	path := arg
	if filepath.Base(path) == "auto" {
		path = filepath.Join(filepath.Dir(path), fmt.Sprintf("BENCH_%s.json", now.Format("20060102T150405")))
	}
	dir := filepath.Dir(path)
	info, err := os.Stat(dir)
	if err != nil {
		return "", fmt.Errorf("-json-out directory: %w", err)
	}
	if !info.IsDir() {
		return "", fmt.Errorf("-json-out: %s is not a directory", dir)
	}
	probe, err := os.CreateTemp(dir, ".benchtable-probe-*")
	if err != nil {
		return "", fmt.Errorf("-json-out directory %s is not writable: %w", dir, err)
	}
	probe.Close()
	if err := os.Remove(probe.Name()); err != nil {
		return "", fmt.Errorf("-json-out probe cleanup: %w", err)
	}
	return path, nil
}

func writeJSON(path string, doc *benchDoc) error {
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

// cell classifies a resource failure the way the paper's Table I does:
// "MO" for memory/node-budget exhaustion, "TO" for a blown deadline.
func cell(err error) (string, bool) {
	switch {
	case errors.Is(err, dd.ErrNodeBudget):
		return "MO", true
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "TO", true
	}
	return "", false
}

// hitRates digests the manager's table statistics into the same cache-kind →
// rate map that weaksim.Telemetry reports.
func hitRates(st dd.Stats) map[string]float64 {
	m := map[string]float64{}
	set := func(kind string, hits, misses uint64) {
		if total := hits + misses; total > 0 {
			m[kind] = float64(hits) / float64(total)
		}
	}
	set("unique_v", st.VHits, st.VMisses)
	set("unique_m", st.MHits, st.MMisses)
	set("cache_mul", st.MulHits, st.MulMisses)
	set("cache_add", st.AddHits, st.AddMisses)
	return m
}

// meanProbeLen is the average slot-inspection count per unique-table lookup
// — 1.0 means every lookup hit its home slot.
func meanProbeLen(st dd.Stats) float64 {
	if st.UniqueLookups == 0 {
		return 0
	}
	return float64(st.UniqueProbeSteps) / float64(st.UniqueLookups)
}

// storageStats copies the arena/table health fields into the row.
func storageStats(row *benchRow, st dd.Stats) {
	row.UniqueProbeLen = meanProbeLen(st)
	row.CacheEvictions = st.CacheEvictions
	row.ArenaSlabs = st.ArenaSlabs
	row.FreelistLen = st.FreelistLen
}

func runRow(name string, shots int, seed uint64, budget, ddBudget, workers int, timeout time.Duration, norm dd.Norm) (benchRow, error) {
	row := benchRow{Name: name}
	c, err := algo.Generate(name)
	if err != nil {
		return row, err
	}
	row.Qubits = c.NQubits
	row.Ops = c.NumOps()
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	mgrOpts := []dd.Option{dd.WithNormalization(norm)}
	if ddBudget > 0 {
		mgrOpts = append(mgrOpts, dd.WithNodeBudget(ddBudget))
	}
	simStart := time.Now()
	s, err := sim.NewDD(c, sim.WithManagerOptions(mgrOpts...))
	if err != nil {
		return row, err
	}
	state, err := s.RunContext(ctx)
	if err != nil {
		// Strong simulation itself was budgeted out or timed out: neither
		// sampling column can run — the whole row is MO/TO, as in the
		// paper's vector rows that never complete.
		if mark, ok := cell(err); ok {
			fmt.Printf("%-18s %6d | %8s %10s | %12s %9s | %9s %6s\n",
				name, c.NQubits, mark, mark, mark, mark, mark, "")
			row.Status = mark
			row.PeakNodes = s.Manager().PeakNodes()
			row.HitRates = hitRates(s.Manager().TableStats())
			storageStats(&row, s.Manager().TableStats())
			return row, nil
		}
		return row, err
	}
	simTime := time.Since(simStart)
	m := s.Manager()
	nodeCount := m.NodeCount(state)
	row.Status = "ok"
	row.SimSeconds = simTime.Seconds()
	row.PeakNodes = m.PeakNodes()
	row.StateNodes = nodeCount
	row.HitRates = hitRates(m.TableStats())
	storageStats(&row, m.TableStats())

	// Vector-based column: expand amplitudes, square, prefix-sum, then
	// binary-search sampling. The paper's time column covers prefix-sum
	// construction plus the million samples.
	vecCol := "MO"
	vecTime := "MO"
	row.VectorStatus = "MO"
	if c.NQubits <= budget && c.NQubits <= dd.MaxDenseQubits {
		start := time.Now()
		amps, err := m.ToVector(state)
		if err != nil {
			return row, err
		}
		probs := core.ProbabilitiesFromAmplitudes(amps)
		sampler, err := core.NewPrefixSampler(probs)
		if err != nil {
			return row, err
		}
		if _, err := core.CountsParallelContext(ctx, sampler, seed, shots, 1); err != nil {
			if mark, ok := cell(err); ok {
				vecCol, vecTime = mark, mark
				row.VectorStatus = mark
			} else {
				return row, err
			}
		} else {
			elapsed := time.Since(start)
			vecTime = fmt.Sprintf("%.2f", elapsed.Seconds())
			vecCol = fmt.Sprintf("2^%d", c.NQubits)
			row.VectorStatus = "ok"
			row.VectorSeconds = elapsed.Seconds()
		}
	}

	ddSize := fmt.Sprintf("%6d ≈2^%-4.1f", nodeCount, math.Log2(float64(nodeCount)))

	// DD column: freeze the state into an immutable snapshot once, then
	// draw the batch by lock-free walks over the flat arrays, sharded across
	// the worker pool. The printed time covers freeze + sampling.
	freezeStart := time.Now()
	snap, err := m.Freeze(state)
	if err != nil {
		return row, err
	}
	row.FreezeSeconds = time.Since(freezeStart).Seconds()
	frozen, err := core.NewFrozenSampler(snap)
	if err != nil {
		return row, err
	}
	var ddTime string
	start := time.Now()
	if _, err := core.CountsParallelContext(ctx, frozen, seed, shots, workers); err != nil {
		if mark, ok := cell(err); ok {
			ddTime = mark
			row.DDFrozenStatus = mark
		} else {
			return row, err
		}
	} else {
		row.DDFrozenStatus = "ok"
		row.DDFrozenSeconds = time.Since(start).Seconds()
		ddTime = fmt.Sprintf("%.2f", row.FreezeSeconds+row.DDFrozenSeconds)
	}

	fmt.Printf("%-18s %6d | %8s %10s | %12s %9s | %9.2f %6.2f\n",
		name, c.NQubits, vecCol, vecTime, ddSize, ddTime, simTime.Seconds(), row.UniqueProbeLen)
	return row, nil
}
