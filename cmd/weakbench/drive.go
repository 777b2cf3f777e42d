package main

import (
	"math"
	"runtime/debug"
	"sort"
	"time"

	"weaksim/internal/obs"
)

// runner is one workload's view of its stack.
type runner interface {
	// boot starts the stack and warms it until the first operation can be
	// timed; it is what setup_s measures.
	boot() error
	// op performs operation i of the workload's plan. The plan is a pure
	// function of the seed and i. The record's cpu covers the calls into
	// the stack, not the making of the input or the reading of the answer.
	op(i int) opRec
	// verify checks every answer after the window, setting err on each
	// operation whose answer is wrong.
	verify(ops []opRec)
	// shutdown stops whatever boot started.
	shutdown()
	// roundLen is how many consecutive plan indices make one round (see
	// drive).
	roundLen() int
	// mix is what the traced run's replays run on, given the window's
	// operations.
	mix(ops []opRec) mix
}

// opRec is one operation: its timing, what it delivered, and what the
// answer said, kept until verification.
type opRec struct {
	i int
	// kind names the circuit the operation ran; operations of one kind do
	// the same work (see summarize).
	kind       string
	start, end time.Time
	// cpu is the CPU time the whole process used while the operation's
	// calls into the stack ran.
	cpu   time.Duration
	shots int
	err   error
	ans   answer
	// payload is workload-specific data kept for verification.
	payload any
	// The rest is filled on traced runs only: whether this operation was
	// sent traced, the trace and span IDs of its traceparent, and the
	// server's per-phase breakdown and spans.
	traced  bool
	traceID obs.TraceID
	spanID  obs.SpanID
	phases  map[string]int64
	spans   []obs.SpanRecord
}

// measured is what drive saw in one window.
type measured struct {
	start time.Time
	ops   []opRec // in plan order
	// rssMB is the process's resident-set high-water mark over the window.
	rssMB float64
}

// drive runs the closed loop for one window: one client sends each
// operation only after the previous one completed, and stops at the first
// round boundary after the window ends, so every circuit of a round is
// measured equally often whatever the seed and wherever the window ends.
// With one client, the process's CPU time while an operation runs is that
// operation's cost.
func drive(d runner, window time.Duration) measured {
	// The window starts from a collected heap, so its resident-set peak
	// owes nothing to set-up.
	debug.FreeOSMemory()
	resetPeakRSS()
	m := measured{start: time.Now()}
	deadline := m.start.Add(window)
	for i := 0; i%d.roundLen() != 0 || time.Now().Before(deadline); i++ {
		m.ops = append(m.ops, d.op(i))
	}
	m.rssMB = peakRSSMB()
	return m
}

// windowStats are the numbers one window produced.
type windowStats struct {
	// cpuMS is the process CPU time per operation (see summarize).
	cpuMS float64
	// Wall-clock numbers: operation latency percentiles in ms, and
	// operations and shots per second.
	p50, p99           float64
	opsPerS, shotsPerS float64
	// tail is the nearest-rank percentile p99 reports (see tailRank).
	tail float64
}

// round is a fixed block of consecutive operations: one pass over a
// workload's cycle of circuits, or a block of requests drawn from its mix.
type round struct {
	start, end     time.Time
	failed, traced bool
}

// rounds groups operations, in plan order, into their rounds.
func rounds(ops []opRec, roundLen int) []round {
	var rs []round
	for k, op := range ops {
		if k == 0 || op.i/roundLen != ops[k-1].i/roundLen {
			rs = append(rs, round{start: op.start, traced: op.traced})
		}
		r := &rs[len(rs)-1]
		r.end = op.end
		r.failed = r.failed || op.err != nil
	}
	return rs
}

// summarize computes the window's numbers.
//
// cpuMS prices every operation of the window at the cheapest CPU time any
// operation of its kind took, and averages that over the window's mix.
// This host shares its cores, caches and memory bandwidth with other
// machines' work, and that contention can slow memory-bound code by half
// for minutes at a time, with short quiet spells between. The cheapest
// operation of a kind is the one that ran in the quietest spell, so it
// repeats from run to run where a median or mean moves with the
// neighbours. Work every operation of a kind does shows in its cheapest
// one; work that lands on some operations only, such as a GC cycle, may
// not.
//
// Latency percentiles cover every operation (a failed one included: it
// cost its caller that long), and throughput the span from the window's
// start to the last completion.
func summarize(m measured) windowStats {
	lat := make([]float64, len(m.ops))
	cheapest := map[string]time.Duration{}
	last, shots := m.start, 0
	for k, op := range m.ops {
		lat[k] = ms(op.end.Sub(op.start))
		if c, ok := cheapest[op.kind]; !ok || op.cpu < c {
			cheapest[op.kind] = op.cpu
		}
		if op.end.After(last) {
			last = op.end
		}
		if op.err == nil {
			shots += op.shots
		}
	}
	sort.Float64s(lat)
	cpu := 0.0
	for _, op := range m.ops {
		cpu += ms(cheapest[op.kind]) / float64(len(m.ops))
	}
	span := last.Sub(m.start).Seconds()
	tail := tailRank(len(lat))
	return windowStats{
		cpuMS:     cpu,
		p50:       percentile(lat, 0.50),
		p99:       lat[tail],
		tail:      float64(tail+1) / float64(len(lat)),
		opsPerS:   float64(len(m.ops)) / span,
		shotsPerS: float64(shots) / span,
	}
}

// tailSamples is how many operations must lie beyond a reported tail
// percentile for it to be measured rather than one slow operation.
const tailSamples = 10

// tailRank is the index, among n sorted latencies, that the wall-clock p99
// reports: the nearest-rank p99 when at least tailSamples operations lie
// beyond it (n ≥ 1000), else the highest rank that has tailSamples beyond
// it, and never a rank below the median. On the workloads with long
// operations, whose windows hold a few dozen at most, it is a lower
// percentile or the median.
func tailRank(n int) int {
	k := min(int(math.Ceil(0.99*float64(n)))-1, n-1-tailSamples)
	return max(k, int(math.Ceil(0.5*float64(n)))-1, 0)
}

// percentile is the nearest-rank q-quantile of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
