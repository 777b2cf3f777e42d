// Command weakbench is the repository's end-to-end and per-layer benchmark.
// For one named workload it boots the real stack in-process (serve.New or
// the weaksim facade), drives it with a closed-loop
// load generator for a fixed window, checks every answer against an
// in-process reference, and prints each metric by name, value and unit.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"cpu_ms_per_op":{"value":1.31,"unit":"ms"},...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// is traced, the metrics are the per-layer ones (trace.go, layers.go), and
// the spans are written as JSONL.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash cmd/weakbench/run.sh --workload interactive_direct --seed 1 --seconds 20 --trace 0
//
// README.md lists the workloads and metrics and why each was chosen.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// firstErr is the first failed operation's error, for the human-readable
	// lines.
	firstErr error
}

// config is one run's settings.
type config struct {
	seed   uint64
	window time.Duration
	// small swaps every workload's inputs for its smallest mix (tests).
	small bool
	// traced selects the per-layer run; spans is its JSONL output.
	traced bool
	spans  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("weakbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: circuit parameters, request order, sampling seeds")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced, prints per-layer metrics and writes .bench_build/spans/<workload>-<seed>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "weakbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "weakbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		spans: fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", w.name, *seed)}
	res, err := benchmark(w, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "weakbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "weakbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// benchmark runs one workload and reports on it. Human-readable lines go to
// out; the caller prints the JSON result after them.
func benchmark(w *workload, cfg config, out io.Writer) (result, error) {
	printHost(out, w, cfg)
	var (
		res result
		err error
	)
	if cfg.traced {
		res, err = traced(w, cfg, out)
	} else {
		res, err = endToEnd(w, cfg, out)
	}
	if err != nil {
		return result{}, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "%-28s %14.6g ratio (%d of %d rounds failed)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if res.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", res.firstErr)
	}
	return res, nil
}

// endToEnd boots the stack several times, drives the last boot for the
// window, verifies every answer, and computes the end-to-end metrics.
//
// Times are the process's CPU time (user and system, all threads), not wall
// time. On a shared host a whole run can go twice as slow on the wall clock
// while the work it does stays the same; the kernel leaves the time a vCPU
// spends descheduled (steal) and waiting behind other processes out of a
// process's CPU time. Set-up and the window run on one P (see oneP), and
// cpu_ms_per_op prices each operation at the cheapest of its kind (see
// summarize).
// Wall-clock latency and throughput are printed as lines of their own, and
// the traced run reports them among its metrics.
func endToEnd(w *workload, cfg config, out io.Writer) (result, error) {
	d := w.newRunner(cfg)
	restore := oneP()
	defer restore()
	booted, err := boot(d)
	if err != nil {
		return result{}, err
	}
	m := drive(d, cfg.window)
	// Verification needs no server; stopping first keeps the stack's memory
	// and the references' apart.
	d.shutdown()
	restore()
	runtime.GC()
	d.verify(m.ops)
	if len(m.ops) == 0 {
		return result{}, fmt.Errorf("no operation completed in the window")
	}
	res := tally(m.ops, d.roundLen())
	s := summarize(m)
	fmt.Fprintf(out, "wall clock over %d operations: p50 %.4g ms, p%.1f %.4g ms, %.4g operations/s, %.4g shots/s\n",
		len(m.ops), s.p50, 100*s.tail, s.p99, s.opsPerS, s.shotsPerS)
	fmt.Fprintf(out, "peak RSS over the window: %.4g MB\n", m.rssMB)
	res.Metrics = map[string]metric{
		"setup_s":       {median(booted), "s"},
		"cpu_ms_per_op": {s.cpuMS, "ms"},
	}
	return res, nil
}

// setups is how many times a run boots the stack; setup_s is the median.
const setups = 3

// boot starts the stack setups times and returns the CPU seconds each boot
// took; every boot but the last is shut down again, and the next starts
// from a collected heap.
func boot(d runner) ([]float64, error) {
	var took []float64
	for k := 0; k < setups; k++ {
		if k > 0 {
			d.shutdown()
			runtime.GC()
		}
		cpu := cpuTime()
		if err := d.boot(); err != nil {
			d.shutdown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		took = append(took, (cpuTime() - cpu).Seconds())
	}
	return took, nil
}

// procs is the process's GOMAXPROCS at start: the value weaksimd runs with
// on this host, which the servers' worker caps resolve to (serverConfig).
var procs = runtime.GOMAXPROCS(0)

// oneP sets GOMAXPROCS to 1 until the returned function restores procs.
// With two Ps and one closed-loop client, an idle P's thread spins looking
// for work at every hand-off between client and server: on the reference
// host that added about a third to the CPU time of an interactive request,
// and its amount moved with the host's load, so the cheapest round spread
// 11 % between runs against 2 % on one P. Work the stack runs in parallel
// (sampling workers, job workers) still runs, interleaved on the one P.
func oneP() (restore func()) {
	runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(procs) }
}

// cpuTime is the CPU time the process has used so far, user and system,
// summed over its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's VmHWM to its current resident set
// (Linux clear_refs code 5). Where that is refused, the window's peak RSS
// covers the whole process up to the window's end instead.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// tally counts attempted and failed rounds and keeps the first failure.
func tally(ops []opRec, roundLen int) result {
	rs := rounds(ops, roundLen)
	res := result{Attempted: len(rs)}
	for _, r := range rs {
		if r.failed {
			res.Failed++
		}
	}
	for _, op := range ops {
		if op.err != nil {
			res.firstErr = fmt.Errorf("operation %d: %w", op.i, op.err)
			break
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// median is the middle of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printHost records the facts a reader needs to compare two runs.
func printHost(out io.Writer, w *workload, cfg config) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(out, "weakbench workload=%s seed=%d window=%s traced=%t\n", w.name, cfg.seed, cfg.window, cfg.traced)
	fmt.Fprintf(out, "host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}
