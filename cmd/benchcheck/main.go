// Command benchcheck is the CI benchmark regression gate. It re-runs the
// frozen-sampling benchmark a few times, takes the per-benchmark minimum
// (the least-noisy statistic for a throughput benchmark), and compares it
// against the committed baseline in BENCH_FROZEN.txt. Any benchmark more
// than -tolerance slower than its baseline fails the gate.
//
// Usage:
//
//	benchcheck                            # run + compare with defaults
//	benchcheck -tolerance 0.25 -count 3
//	benchcheck -input bench.out           # compare pre-captured output
//
// The tool is deliberately forgiving in one direction: benchmarks present
// in the current run but missing from the baseline are reported and
// skipped, so adding a new benchmark never breaks the gate — committing a
// new baseline row is what arms it. Getting faster never fails.
//
// The baseline was captured on one specific machine; the default 25%
// tolerance absorbs scheduler noise on comparable hardware, not a change
// of CPU generation. The committed baseline carries -count 3 rows per
// benchmark and is folded with max() — the slowest committed known-good
// run — while the current side is folded with min(). The gate therefore
// fires only when even the best of 3 fresh runs is more than -tolerance
// slower than the worst run that was acceptable at commit time, which is
// what keeps a 25% tolerance usable on shared hosts whose throughput
// drifts between runs. When the fleet changes or the host drifts,
// regenerate the baseline with `make bench-frozen > BENCH_FROZEN.txt`
// (and keep its commentary).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches a `go test -bench` result row, e.g.
//
//	BenchmarkSampleFrozen/qft_16-8   200000   261.5 ns/op
//
// The trailing -N GOMAXPROCS suffix is stripped so runs from machines with
// different core counts compare against the same baseline name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// foldMode decides how repeated rows for the same benchmark collapse to a
// single ns/op value.
type foldMode int

const (
	// foldMin keeps the fastest repetition — the least-noisy statistic
	// for a throughput benchmark. Used for the current run.
	foldMin foldMode = iota
	// foldMax keeps the slowest repetition — the noisiest run that was
	// still considered good when the baseline was committed. Used for the
	// baseline.
	foldMax
)

// parseBench extracts one ns/op value per benchmark name from `go test
// -bench` output, folding repeated rows (from -count N) per fold. Comparing
// the current minimum against the baseline maximum makes the gate fire only
// when even the best current run is more than -tolerance slower than the
// slowest committed known-good run; that asymmetry is what keeps a tight
// tolerance usable on hosts whose schedulers drift between fast and slow
// modes from one minute to the next.
func parseBench(r io.Reader, fold foldMode) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		cur, ok := out[m[1]]
		if !ok || (fold == foldMin && ns < cur) || (fold == foldMax && ns > cur) {
			out[m[1]] = ns
		}
	}
	return out, sc.Err()
}

// row is one gate comparison.
type row struct {
	Name      string
	Base      float64 // baseline ns/op
	Cur       float64 // current min ns/op
	Ratio     float64 // Cur / Base
	Regressed bool
	Missing   bool // present now, absent from the baseline
}

// compare evaluates every current benchmark whose name contains match
// against the baseline, flagging regressions beyond tolerance (e.g. 0.25 =
// 25% slower).
func compare(base, cur map[string]float64, match string, tolerance float64) []row {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if strings.Contains(name, match) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rows := make([]row, 0, len(names))
	for _, name := range names {
		r := row{Name: name, Cur: cur[name]}
		b, ok := base[name]
		if !ok {
			r.Missing = true
		} else {
			r.Base = b
			r.Ratio = r.Cur / b
			r.Regressed = r.Cur > b*(1+tolerance)
		}
		rows = append(rows, r)
	}
	return rows
}

// report prints the comparison table and returns an error when the gate
// fails (a regression, or nothing to compare at all).
func report(w io.Writer, rows []row, tolerance float64) error {
	if len(rows) == 0 {
		return fmt.Errorf("no benchmarks matched; gate has nothing to check")
	}
	failed := 0
	compared := 0
	for _, r := range rows {
		switch {
		case r.Missing:
			fmt.Fprintf(w, "SKIP %-55s %9.1f ns/op (no baseline row; commit one to arm the gate)\n", r.Name, r.Cur)
		case r.Regressed:
			failed++
			compared++
			fmt.Fprintf(w, "FAIL %-55s %9.1f -> %9.1f ns/op (%.2fx > %.2fx allowed)\n",
				r.Name, r.Base, r.Cur, r.Ratio, 1+tolerance)
		default:
			compared++
			fmt.Fprintf(w, "ok   %-55s %9.1f -> %9.1f ns/op (%.2fx)\n", r.Name, r.Base, r.Cur, r.Ratio)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark had a baseline row; gate has nothing to check")
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", failed, tolerance*100)
	}
	return nil
}

// runBench executes the benchmark subprocess and returns its combined
// output. -count N in a single invocation yields N rows per benchmark, which
// parseBench folds with min() on the current side.
func runBench(gotool, pkg, pattern, benchtime string, count int) ([]byte, error) {
	cmd := exec.Command(gotool, "test", "-run", "^$",
		"-bench", pattern, "-benchtime", benchtime,
		"-count", strconv.Itoa(count), pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return out, fmt.Errorf("%s test -bench: %w\n%s", gotool, err, out)
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseline  = fs.String("baseline", "BENCH_FROZEN.txt", "committed baseline file (go test -bench output)")
		pattern   = fs.String("bench", "BenchmarkSampleFrozen", "benchmark pattern to run and gate on")
		benchtime = fs.String("benchtime", "2000000x", "per-run benchtime (fixed iteration counts keep runs comparable; ~0.2-0.7s per row averages over scheduler jitter)")
		count     = fs.Int("count", 3, "benchmark repetitions; the minimum ns/op is compared against the baseline's maximum")
		tolerance = fs.Float64("tolerance", 0.25, "allowed slowdown vs baseline (0.25 = 25%)")
		pkg       = fs.String("pkg", ".", "package holding the benchmarks")
		gotool    = fs.String("go", "go", "go tool to invoke")
		input     = fs.String("input", "", "pre-captured go test -bench output; skips running the benchmarks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	baseFile, err := os.Open(*baseline)
	if err != nil {
		return fmt.Errorf("open baseline: %w", err)
	}
	defer baseFile.Close()
	base, err := parseBench(baseFile, foldMax)
	if err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	if len(base) == 0 {
		return fmt.Errorf("baseline %s holds no benchmark rows", *baseline)
	}

	var raw []byte
	if *input != "" {
		raw, err = os.ReadFile(*input)
		if err != nil {
			return fmt.Errorf("read input: %w", err)
		}
	} else {
		fmt.Fprintf(stdout, "benchcheck: running %s (count=%d, benchtime=%s)...\n", *pattern, *count, *benchtime)
		raw, err = runBench(*gotool, *pkg, *pattern, *benchtime, *count)
		if err != nil {
			return err
		}
	}
	cur, err := parseBench(strings.NewReader(string(raw)), foldMin)
	if err != nil {
		return fmt.Errorf("parse current run: %w", err)
	}
	return report(stdout, compare(base, cur, strings.TrimPrefix(*pattern, "^"), *tolerance), *tolerance)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}
