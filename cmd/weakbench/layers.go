package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"weaksim/internal/algo"
	"weaksim/internal/circuit/qasm"
	"weaksim/internal/cnum"
	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/job"
	"weaksim/internal/obs"
	"weaksim/internal/rng"
	"weaksim/internal/serve"
	"weaksim/internal/sim"
	"weaksim/internal/snapstore"
)

// mix is what the traced run's replays run on: the workload's circuits,
// each weighted by how many operations used it, and the shape of one
// operation's answer.
type mix struct {
	circuits []*benchCircuit
	weights  []float64
	// at maps an operation's plan index to its circuit's position.
	at map[int]int
	// shots is the shots one answer carries; parts is how many partial
	// tallies are merged into it (sampling workers, or job chunks).
	shots, parts int
}

// weigh builds a mix from the circuit each of the first limit operations
// used, in order of first use.
func weigh(ops []opRec, limit int, pick func(i int) *benchCircuit, shots, parts int) mix {
	m := mix{at: map[int]int{}, shots: shots, parts: parts}
	pos := map[*benchCircuit]int{}
	for _, op := range ops[:min(limit, len(ops))] {
		c := pick(op.i)
		k, ok := pos[c]
		if !ok {
			k = len(m.circuits)
			pos[c] = k
			m.circuits = append(m.circuits, c)
			m.weights = append(m.weights, 0)
		}
		m.weights[k]++
		m.at[op.i] = k
	}
	return m
}

func (m mix) total() float64 {
	t := 0.0
	for _, w := range m.weights {
		t += w
	}
	return t
}

// costs are one circuit's replayed layer costs.
type costs struct {
	c                          *benchCircuit
	parseUS, hashUS            float64
	buildMS, applyMS, freezeMS float64
	snapNodes, peakNodes       float64
	// dd_* counters of the simulation.
	cacheHits, cacheLookups, probes, uniqueLookups, gcRuns float64
	// walkNS includes the RNG draws; rngNS is those draws alone.
	walkNS, rngNS, tallyNS, mergeMS, distinctPer1k float64
	encodeMS, responseKB                           float64
	shipKB, shipMS                                 float64
}

// replayCircuit times every layer's public functions on one circuit of
// the mix and returns the costs and the frozen sampler it built.
func replayCircuit(c *benchCircuit, m mix, seed uint64, spans *spanLog) (costs, *core.FrozenSampler, error) {
	out := costs{c: c}
	tid := obs.NewTraceID()
	root := spans.start(tid, obs.SpanID{}, "replay."+c.name)
	defer root.end(nil)
	timed := func(name string, f func()) time.Duration {
		sp := spans.start(tid, root.id, name)
		d := medianTime(f)
		sp.end(map[string]any{"median_ns": d.Nanoseconds()})
		return d
	}

	if c.qasm != "" {
		out.parseUS = us(timed("qasm.parse", func() { _, _ = qasm.Parse(c.qasm, "request") }))
	} else {
		out.parseUS = us(timed("algo.generate", func() { _, _ = algo.Generate(c.name) }))
	}
	out.hashUS = us(timed("serve.hash", func() { serve.CircuitKey(c.circ, norm, false) }))

	// One strong simulation, timed layer by layer, with the dd counters on.
	reg := obs.NewRegistry()
	sp := spans.start(tid, root.id, "sim.build")
	t0 := time.Now()
	ds, err := sim.NewDD(c.circ, sim.WithManagerOptions(dd.WithNormalization(norm)), sim.WithObservability(reg, nil))
	out.buildMS = ms(time.Since(t0))
	sp.end(nil)
	if err != nil {
		return out, nil, fmt.Errorf("%s: build: %w", c.name, err)
	}
	sp = spans.start(tid, root.id, "sim.apply")
	t0 = time.Now()
	e, err := ds.RunContext(context.Background())
	out.applyMS = ms(time.Since(t0))
	sp.end(nil)
	if err != nil {
		return out, nil, fmt.Errorf("%s: apply: %w", c.name, err)
	}
	sp = spans.start(tid, root.id, "dd.freeze")
	t0 = time.Now()
	snap, err := ds.Manager().FreezeContext(context.Background(), e)
	out.freezeMS = ms(time.Since(t0))
	sp.end(nil)
	if err != nil {
		return out, nil, fmt.Errorf("%s: freeze: %w", c.name, err)
	}
	ds.Manager().PublishMetrics()
	snapM := reg.Snapshot()
	ctr := func(names ...string) float64 {
		t := uint64(0)
		for _, n := range names {
			t += snapM.Counters[n]
		}
		return float64(t)
	}
	out.snapNodes = float64(snap.Len())
	out.peakNodes = float64(snapM.Gauges["dd_peak_nodes"])
	out.cacheHits = ctr("dd_cache_hits_total")
	out.cacheLookups = out.cacheHits + ctr("dd_cache_misses_total")
	out.probes = ctr("dd_unique_probe_len")
	out.uniqueLookups = ctr("dd_unique_v_hits_total", "dd_unique_v_misses_total", "dd_unique_m_hits_total", "dd_unique_m_misses_total")
	out.gcRuns = ctr("dd_gc_runs_total")
	fs, err := core.NewFrozenSampler(snap)
	if err != nil {
		return out, nil, fmt.Errorf("%s: %w", c.name, err)
	}

	// Shipping: the snapstore frame a router copies between replicas.
	var frame []byte
	enc := timed("snapstore.encode", func() { frame = snapstore.Encode(snap) })
	dec := timed("snapstore.decode", func() { _, _ = snapstore.Decode(frame) })
	out.shipKB, out.shipMS = float64(len(frame))/1024, ms(enc+dec)

	// The frozen walk, then the tally around it, then the merge of the
	// answer's partial tallies, then the response encoding.
	sp = spans.start(tid, root.id, "core.walk")
	out.walkNS, out.rngNS = walkSplit(fs, seed)
	sp.end(nil)
	sp = spans.start(tid, root.id, "core.tally")
	parts, perShot := drawParts(fs, seed, m.shots, m.parts)
	out.tallyNS = perShot - out.walkNS
	sp.end(nil)
	merged := map[uint64]int{}
	out.mergeMS = ms(timed("core.merge", func() {
		merged = make(map[uint64]int, core.CountsSizeHint(m.shots, fs.Qubits()))
		core.MergeCounts(merged, parts...)
	}))
	out.distinctPer1k = float64(len(merged)) / float64(m.shots) * 1000
	var body []byte
	out.encodeMS = ms(timed("serve.encode", func() { body = encodeResponse(merged, fs.Qubits(), m.shots) }))
	out.responseKB = float64(len(body)) / 1024
	return out, fs, nil
}

const (
	// walkShots is how many walks a per-shot cost is averaged over.
	walkShots = 1 << 18
	// walkReps is how many times the walk and the RNG draws it consumes
	// are timed, alternately, so that both see the same host.
	walkReps = 3
	// replayStream is the first stream index the replays draw from. Every
	// timed loop draws a sequence of its own: a repeated one is learned by
	// the branch predictor and runs faster than a fresh one.
	replayStream = 1 << 20
)

// walkSplit times FrozenSampler.Sample per shot, RNG draws included, and
// the same number of rng.Float64 draws alone (one per qubit per shot).
// Each is the median of walkReps alternating loops.
func walkSplit(fs *core.FrozenSampler, seed uint64) (walkNS, rngNS float64) {
	var walks, draws []float64
	var sink uint64
	for rep := 0; rep < walkReps; rep++ {
		r := rng.Stream(seed, replayStream+2*rep)
		t0 := time.Now()
		for k := 0; k < walkShots; k++ {
			sink ^= fs.Sample(r)
		}
		walks = append(walks, float64(time.Since(t0).Nanoseconds())/walkShots)
		r = rng.Stream(seed, replayStream+2*rep+1)
		n := walkShots * fs.Qubits()
		t0 = time.Now()
		for k := 0; k < n; k++ {
			sink ^= math.Float64bits(r.Float64())
		}
		draws = append(draws, float64(time.Since(t0).Nanoseconds())/walkShots)
	}
	keep(sink)
	return median(walks), median(draws)
}

// drawParts draws one answer's partial tallies with core.Counts, as
// core.CountsParallel's workers or a job's chunks do, repeating until at
// least walkShots shots were drawn. It returns the last repetition's
// parts and the cost per shot of walk plus tally.
func drawParts(fs *core.FrozenSampler, seed uint64, shots, nparts int) ([]map[uint64]int, float64) {
	reps := max(1, (walkShots+shots-1)/shots)
	parts := make([]map[uint64]int, nparts)
	var total time.Duration
	for rep := 0; rep < reps; rep++ {
		for k := range parts {
			quota := shots / nparts
			if k < shots%nparts {
				quota++
			}
			r := rng.Stream(seed, 2*replayStream+rep*nparts+k)
			t0 := time.Now()
			parts[k] = core.Counts(fs, r, quota)
			total += time.Since(t0)
		}
	}
	return parts, float64(total.Nanoseconds()) / float64(reps*shots)
}

// responseShape mirrors the fields of a /v1/sample success body.
type responseShape struct {
	Counts        map[string]int `json:"counts"`
	Qubits        int            `json:"qubits"`
	Shots         int            `json:"shots"`
	Seed          uint64         `json:"seed"`
	Workers       int            `json:"workers"`
	Cached        bool           `json:"cached"`
	CircuitKey    string         `json:"circuit_key"`
	SnapshotNodes int            `json:"snapshot_nodes"`
	SimNS         int64          `json:"sim_ns"`
	SampleNS      int64          `json:"sample_ns"`
}

// encodeResponse is what the daemon does to counts before they leave it:
// key every outcome by core.FormatBits and marshal the response.
func encodeResponse(counts map[uint64]int, qubits, shots int) []byte {
	byBits := make(map[string]int, len(counts))
	for idx, n := range counts {
		byBits[core.FormatBits(idx, qubits)] = n
	}
	body, err := json.Marshal(responseShape{Counts: byBits, Qubits: qubits, Shots: shots, CircuitKey: "0123456789abcdef"})
	if err != nil {
		panic(err) // a map of strings to ints always marshals
	}
	return body
}

// jobReplay is one job run outside-in through job.NewManager.
type jobReplay struct {
	wall   time.Duration
	chunks int
	phases map[string]int64
}

// replayChunks is the size of a replayed job in chunks.
const replayChunks = 4

// replayJob runs one job of replayChunks default-size chunks over fs, with
// a write-ahead log in dir, or in memory when dir is empty.
func replayJob(fs core.Sampler, c *benchCircuit, seed uint64, dir string) (jobReplay, error) {
	m := job.NewManager(job.Config{
		Dir:      dir,
		Snapshot: func(context.Context, job.Spec) (core.Sampler, error) { return fs, nil },
	})
	if err := m.Start(); err != nil {
		return jobReplay{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Stop(ctx)
	}()
	t0 := time.Now()
	st, err := m.Submit(job.Spec{
		Key: c.name, Circuit: c.name, Qubits: c.circ.NQubits, Seed: seed, Tenant: "replay",
		Shots: replayChunks * job.DefaultChunkShots, ChunkShots: job.DefaultChunkShots,
	})
	if err != nil {
		return jobReplay{}, err
	}
	events, stop, err := m.Subscribe(st.ID)
	if err != nil {
		return jobReplay{}, err
	}
	defer stop()
	for ev := range events {
		if !ev.Terminal {
			continue
		}
		if ev.State != job.StateCompleted {
			return jobReplay{}, fmt.Errorf("replayed job ended %s: %s", ev.State, ev.Error)
		}
		return jobReplay{wall: time.Since(t0), chunks: ev.ChunksDone, phases: ev.PhaseNS}, nil
	}
	return jobReplay{}, fmt.Errorf("replayed job: event stream closed early")
}

// jobReplays is how many times the durable and the in-memory replay
// alternate per circuit.
const jobReplays = 3

// replayJobs runs the job replay on fs with a write-ahead log in a fresh
// directory and in memory, alternately, and returns the run of median
// wall time of each.
func replayJobs(fs core.Sampler, c *benchCircuit, seed uint64) (durable, memory jobReplay, err error) {
	var ds, ms []jobReplay
	for r := 0; r < jobReplays; r++ {
		dir, err := os.MkdirTemp("", "weakbench-replay-")
		if err != nil {
			return jobReplay{}, jobReplay{}, err
		}
		d, err := replayJob(fs, c, seed, dir)
		os.RemoveAll(dir)
		if err != nil {
			return jobReplay{}, jobReplay{}, err
		}
		m, err := replayJob(fs, c, seed, "")
		if err != nil {
			return jobReplay{}, jobReplay{}, err
		}
		ds, ms = append(ds, d), append(ms, m)
	}
	return medianWall(ds), medianWall(ms), nil
}

func medianWall(rs []jobReplay) jobReplay {
	sort.Slice(rs, func(a, b int) bool { return rs[a].wall < rs[b].wall })
	return rs[len(rs)/2]
}

// crossover is the prefix-sum sampler against the frozen DD walk on one
// circuit (README.md, "The crossover").
type crossover struct {
	name                   string
	qubits                 int
	prefixBuildMS          float64
	prefixNS, walkNS       float64
	prefixTallyNS, tallyNS float64
}

// crossoverCircuits are the rows where EXPERIMENTS.md records the vector
// path beating the DD walk.
var crossoverCircuits = []string{"qft_16", "shor_33_2"}

// replayCrossover builds both samplers for a circuit and times a shot of
// each, alone and with core.Counts' tally around it.
func replayCrossover(c *benchCircuit, seed uint64) (crossover, error) {
	fs, err := c.sampler()
	if err != nil {
		return crossover{}, err
	}
	snap := fs.Snapshot()
	amps := make([]cnum.Complex, 1<<uint(fs.Qubits()))
	for idx := range amps {
		amps[idx] = snap.Amplitude(uint64(idx))
	}
	probs := core.ProbabilitiesFromAmplitudes(amps)
	var ps *core.PrefixSampler
	build := medianTime(func() { ps, err = core.NewPrefixSampler(probs) })
	if err != nil {
		return crossover{}, err
	}
	x := crossover{name: c.name, qubits: fs.Qubits(), prefixBuildMS: ms(build)}
	x.walkNS, _ = walkSplit(fs, seed)
	r := rng.Stream(seed, 3*replayStream)
	var sink uint64
	t0 := time.Now()
	for k := 0; k < walkShots; k++ {
		sink ^= ps.Sample(r)
	}
	x.prefixNS = float64(time.Since(t0).Nanoseconds()) / walkShots
	keep(sink)
	t0 = time.Now()
	core.Counts(ps, rng.Stream(seed, 3*replayStream+1), walkShots)
	x.prefixTallyNS = float64(time.Since(t0).Nanoseconds())/walkShots - x.prefixNS
	_, perShot := drawParts(fs, seed, walkShots, 1)
	x.tallyNS = perShot - x.walkNS
	return x, nil
}

// medianTime calls f repeatedly and returns the median duration of one
// call: a single call when one takes over 100 ms, otherwise enough calls
// to fill about 20 ms (at least 3, at most 201).
func medianTime(f func()) time.Duration {
	t0 := time.Now()
	f()
	first := time.Since(t0)
	if first > 100*time.Millisecond {
		return first
	}
	reps := 3
	if first > 0 {
		reps = int(min(max(int64(20*time.Millisecond/first), 3), 201))
	}
	ds := make([]float64, reps)
	for k := range ds {
		t := time.Now()
		f()
		ds[k] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// sinkValue keeps timed loops from being optimized away.
var sinkValue uint64

func keep(v uint64) { sinkValue ^= v }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
