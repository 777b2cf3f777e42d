package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !sameSet(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json names workloads %v, the program has %v", names, workloadNames())
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestSmoke runs every workload for half a second on its smallest mix,
// plain and traced, and checks that every declared metric is reported
// with its unit and that no operation failed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(name+"/traced="+strconv.FormatBool(traced), func(t *testing.T) {
				t.Parallel()
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				cfg := config{seed: 7, window: 500 * time.Millisecond, small: true, traced: traced, spans: spans}
				var out bytes.Buffer
				res, err := benchmark(workloads[name], cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s missing", n)
					case m.Unit != unit:
						t.Errorf("metric %s in %q, declared %q", n, m.Unit, unit)
					case !strings.Contains(out.String(), n):
						t.Errorf("metric %s not printed", n)
					}
				}
				if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
					t.Errorf("error_rate: %d of %d failed: %v\n%s", res.Failed, res.Attempted, res.firstErr, out.String())
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil {
					t.Fatal(err)
				}
				if got := sortedKeys(keys); !slices.Equal(got, []string{"attempted", "correct", "failed", "metrics"}) {
					t.Errorf("result line has keys %v", got)
				}
				if traced {
					checkSpans(t, spans)
				}
			})
		}
	}
}

// checkSpans checks that the span file holds complete spans, and that
// daemon-side or per-phase spans hang under the operations that caused
// them.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ops := map[string]bool{}
	children := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Name == "" || len(s.TraceID) != 32 || len(s.SpanID) != 16 || s.EndNS < s.StartNS {
			t.Fatalf("incomplete span %+v", s)
		}
		switch {
		case s.Name == "op":
			ops[s.TraceID+s.SpanID] = true
		case strings.HasPrefix(s.Name, "op."):
			if !ops[s.TraceID+s.Parent] {
				t.Fatalf("span %s has no operation above it", s.Name)
			}
			children++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 || children == 0 {
		t.Fatalf("span file has %d operations and %d spans under them", len(ops), children)
	}
}

// TestVerifyCountsTamperedAnswers feeds verification daemon responses
// edited in ways a broken stack could produce, and checks that each
// edited one, and only those, fails.
func TestVerifyCountsTamperedAnswers(t *testing.T) {
	d := newInteractive(config{seed: 3, small: true}).(*sampleRunner)
	if err := d.boot(); err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()

	edit := func(body []byte, f func(counts map[string]int, resp map[string]any)) []byte {
		var resp map[string]any
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for k, v := range resp["counts"].(map[string]any) {
			counts[k] = int(v.(float64))
		}
		f(counts, resp)
		resp["counts"] = counts
		out, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := func(counts map[string]int) string { return sortedKeys(counts)[0] }
	flip := func(bits string) string {
		b := []byte(bits)
		b[0] ^= 1
		return string(b)
	}
	tampers := []struct {
		name string
		f    func(counts map[string]int, resp map[string]any)
	}{
		{"untouched", func(map[string]int, map[string]any) {}},
		{"one shot moved to another outcome", func(c map[string]int, _ map[string]any) {
			k := first(c)
			c[k]--
			c[flip(k)]++
			if c[k] == 0 {
				delete(c, k)
			}
		}},
		{"outcome relabelled", func(c map[string]int, _ map[string]any) {
			k := first(c)
			n := c[k]
			delete(c, k)
			c[flip(k)] += n
		}},
		{"outcome dropped", func(c map[string]int, _ map[string]any) { delete(c, first(c)) }},
		{"qubits field wrong", func(_ map[string]int, r map[string]any) { r["qubits"] = r["qubits"].(float64) + 1 }},
		{"bitstring too short", func(c map[string]int, _ map[string]any) {
			k := first(c)
			c[k[1:]] = c[k]
			delete(c, k)
		}},
	}
	var ops []opRec
	for i, tc := range tampers {
		req := d.plan(i)
		x := d.st.send(http.MethodPost, d.st.base+"/v1/sample", req.body(d.shots, d.workers), nil)
		if err := x.failure(http.StatusOK); err != nil {
			t.Fatal(err)
		}
		rec := opRec{i: i, shots: d.shots}
		rec.ans, rec.err = scanAnswer(edit(x.body, tc.f))
		if rec.err != nil {
			t.Fatalf("%s: %v", tc.name, rec.err)
		}
		ops = append(ops, rec)
	}
	d.verify(ops)
	for k, tc := range tampers {
		if failed := ops[k].err != nil; failed != (k > 0) {
			t.Errorf("%s: failed=%t (%v)", tc.name, failed, ops[k].err)
		}
	}
	if res := tally(ops, 1); res.Failed != len(tampers)-1 || res.Correct {
		t.Errorf("tally: %d of %d failed, correct=%t; want %d", res.Failed, res.Attempted, res.Correct, len(tampers)-1)
	}
}

// TestVerifyCatchesBiasedRows checks that paper_table1's chi-square test
// fails a row whose histogram no longer follows the Born probabilities.
func TestVerifyCatchesBiasedRows(t *testing.T) {
	d := newTable(config{seed: 5, small: true}).(*tableRunner)
	if err := d.boot(); err != nil {
		t.Fatal(err)
	}
	// The last row: the first, qft_8 on |0>, is uniform, so a shifted
	// histogram of it is no less likely.
	good := d.op(d.roundLen() - 1)
	if good.err != nil {
		t.Fatal(good.err)
	}
	row := good.payload.(rowResult)
	shifted := make([]int32, len(row.hist))
	for idx, n := range row.hist {
		shifted[(idx+1)%len(shifted)] = n
	}
	row.hist = shifted
	bad := good
	bad.i = good.i + d.roundLen() // the same row, one pass later
	bad.payload = row
	ops := []opRec{good, bad}
	d.verify(ops)
	if ops[0].err != nil {
		t.Errorf("untouched row failed: %v", ops[0].err)
	}
	if ops[1].err == nil {
		t.Error("biased row passed verification")
	}
}

// TestTailRank pins which operation wall.latency_p99_ms reports: the p99
// once ten operations lie beyond it, a lower rank with ten beyond it before
// that, and the median when the window is too short for any tail.
func TestTailRank(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 0}, {2, 0}, {13, 6}, {21, 10}, {80, 69}, {999, 988}, {1000, 989}, {15000, 14849},
	} {
		if got := tailRank(tc.n); got != tc.want {
			t.Errorf("tailRank(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nonesuch"},
		{"--workload", "bulk_direct", "--seconds", "0"},
		{"--workload", "bulk_direct", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q", args, code, out.String())
		}
	}
}
