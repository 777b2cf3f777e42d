package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"weaksim/internal/obs"
)

// Per-layer metrics come from a separate traced run (--trace 1). It boots
// the stack once and drives the same window as an end-to-end run, but
// every other round is sent with a traceparent header and ?debug=1, so the
// daemon's own phase spans come back under the benchmark's trace IDs; the
// untraced rounds are the baseline for obs.trace_overhead_pct. After the
// window it reads the daemon's counters, replays each layer's public
// functions on the workload's own circuits (layers.go), and writes every
// span as JSONL.

// traceIDs returns fresh IDs for operation i of a traced run when i falls
// in a traced round, and zero IDs otherwise.
func (c config) traceIDs(i, round int) (obs.TraceID, obs.SpanID) {
	if !c.traced || (i/round)%2 == 1 {
		return obs.TraceID{}, obs.SpanID{}
	}
	return obs.NewTraceID(), obs.NewSpanID()
}

func traceHeader(tid obs.TraceID, sid obs.SpanID) http.Header {
	return http.Header{"Traceparent": {obs.Traceparent(tid, sid)}}
}

// scanTrace reads the ?debug=1 trace echo of a /v1/sample response.
func scanTrace(body []byte) (map[string]int64, []obs.SpanRecord, error) {
	var resp struct {
		Trace *struct {
			PhaseNS map[string]int64 `json:"phase_ns"`
			Spans   []obs.SpanRecord `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, err
	}
	if resp.Trace == nil {
		return nil, nil, errors.New("traced response has no trace")
	}
	return resp.Trace.PhaseNS, resp.Trace.Spans, nil
}

// span is one line of the span file.
type span struct {
	Name    string         `json:"name"`
	TraceID string         `json:"trace_id"`
	SpanID  string         `json:"span_id"`
	Parent  string         `json:"parent_id,omitempty"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps a run's spans in memory until it is written out.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	log    *spanLog
	tid    obs.TraceID
	id     obs.SpanID
	parent obs.SpanID
	name   string
	start  time.Time
}

func (l *spanLog) start(tid obs.TraceID, parent obs.SpanID, name string) openSpan {
	return openSpan{log: l, tid: tid, id: obs.NewSpanID(), parent: parent, name: name, start: time.Now()}
}

func (o openSpan) end(attrs map[string]any) {
	o.log.add(newSpan(o.name, o.tid, o.id, o.parent, o.start, time.Now(), attrs))
}

func newSpan(name string, tid obs.TraceID, id, parent obs.SpanID, start, end time.Time, attrs map[string]any) span {
	s := span{Name: name, TraceID: tid.String(), SpanID: id.String(), StartNS: start.UnixNano(), EndNS: end.UnixNano(), Attrs: attrs}
	if !parent.IsZero() {
		s.Parent = parent.String()
	}
	return s
}

// addOps records each traced operation as a span, with the daemon's spans
// (or a job's per-phase totals) under it.
func (l *spanLog) addOps(ops []opRec) {
	for _, op := range ops {
		if !op.traced {
			continue
		}
		opID := op.spanID
		attrs := map[string]any{"op": op.i, "shots": op.shots}
		if op.err != nil {
			attrs["error"] = op.err.Error()
		}
		l.add(newSpan("op", op.traceID, opID, obs.SpanID{}, op.start, op.end, attrs))
		for _, r := range op.spans {
			if r.Kind != "span" {
				continue
			}
			at := time.Unix(0, r.StartNS)
			l.add(newSpan("op."+r.Phase, op.traceID, obs.NewSpanID(), opID, at, at.Add(time.Duration(r.DurNS)),
				map[string]any{"server_span_id": r.SpanID, "shared": r.Shared}))
		}
		if op.spans == nil {
			// Per-phase totals without intervals: each is laid out from the
			// operation's start and marked as an aggregate.
			for _, p := range sortedKeys(op.phases) {
				l.add(newSpan("op."+p, op.traceID, obs.NewSpanID(), opID, op.start,
					op.start.Add(time.Duration(op.phases[p])), map[string]any{"aggregate": true}))
			}
		}
	}
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters are the daemon-side totals a traced run reads before and after
// its window.
type counters struct {
	hits, misses, evictions, sims uint64
}

// counters reads the replica's /v1/stats.
func (s *stack) counters() (counters, error) {
	var st struct {
		Sims  uint64 `json:"sims_total"`
		Cache struct {
			Hits      uint64 `json:"hits"`
			Misses    uint64 `json:"misses"`
			Evictions uint64 `json:"evictions"`
		} `json:"cache"`
	}
	url := s.base + "/v1/stats"
	x := s.send(http.MethodGet, url, nil, nil)
	if err := x.failure(http.StatusOK); err != nil {
		return counters{}, fmt.Errorf("GET %s: %w", url, err)
	}
	if err := json.Unmarshal(x.body, &st); err != nil {
		return counters{}, fmt.Errorf("GET %s: %w", url, err)
	}
	return counters{st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Sims}, nil
}

func (c counters) minus(o counters) counters {
	return counters{c.hits - o.hits, c.misses - o.misses, c.evictions - o.evictions, c.sims - o.sims}
}

// served is a runner whose operations go through the daemon.
type served interface{ stack() *stack }

func (d *sampleRunner) stack() *stack { return d.st }

// traced runs the workload once with tracing and returns the per-layer
// metrics.
func traced(w *workload, cfg config, out io.Writer) (result, error) {
	spans := &spanLog{}
	d := w.newRunner(cfg)
	// Set-up and the window run as in the end-to-end run; verification and
	// the replays use every P.
	restore := oneP()
	defer restore()
	sp := spans.start(obs.NewTraceID(), obs.SpanID{}, "setup")
	if err := d.boot(); err != nil {
		d.shutdown()
		return result{}, fmt.Errorf("setup: %w", err)
	}
	sp.end(nil)

	var before, after counters
	srv, isServed := d.(served)
	if isServed {
		var err error
		if before, err = srv.stack().counters(); err != nil {
			d.shutdown()
			return result{}, err
		}
	}
	win := drive(d, cfg.window)
	ops := win.ops
	spans.add(newSpan("window", obs.NewTraceID(), obs.NewSpanID(), obs.SpanID{}, win.start, time.Now(), map[string]any{"ops": len(ops)}))
	if len(ops) == 0 {
		d.shutdown()
		return result{}, errors.New("no operation completed in the window")
	}
	m := d.mix(ops)
	if isServed {
		var err error
		if after, err = srv.stack().counters(); err != nil {
			d.shutdown()
			return result{}, err
		}
	}
	d.shutdown()
	restore()
	runtime.GC()
	sp = spans.start(obs.NewTraceID(), obs.SpanID{}, "verify")
	d.verify(ops)
	sp.end(nil)
	spans.addOps(ops)
	res := tally(ops, d.roundLen())

	cross := crossoverCircuits
	if cfg.small {
		cross = []string{"qft_8"}
	}
	rep, err := replay(m, cross, cfg.seed, spans)
	if err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	_, jobs := d.(*jobsRunner)
	res.Metrics = layerMetrics(isServed, jobs, ops, d.roundLen(), m, rep, after.minus(before))
	res.Metrics["process.peak_rss_mb"] = metric{win.rssMB, "MB"}
	rep.print(out, m)
	var lat []float64
	for _, op := range ops {
		if op.traced && op.err == nil {
			lat = append(lat, ms(op.end.Sub(op.start)))
		}
	}
	fmt.Fprintf(out, "traced operations: %d, median latency %.3f ms, unattributed %.3f ms of it\n",
		len(lat), median(lat), res.Metrics["serve.unattributed_ms"].Value)
	if err := spans.write(cfg.spans); err != nil {
		return result{}, fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(spans.spans), cfg.spans)
	return res, nil
}

// replayed is everything the library replays measured.
type replayed struct {
	costs []costs
	// rngNS is the median cost of one draw over the circuits' replays.
	rngNS    float64
	cross    []crossover
	durable  []jobReplay
	memory   []jobReplay
	jobNames []string
}

// jobReplayCircuits bounds how many circuits of a mix the job replay runs.
const jobReplayCircuits = 4

func replay(m mix, cross []string, seed uint64, spans *spanLog) (replayed, error) {
	var rep replayed
	for k, c := range m.circuits {
		cs, fs, err := replayCircuit(c, m, seed, spans)
		if err != nil {
			return rep, err
		}
		rep.costs = append(rep.costs, cs)
		if k < jobReplayCircuits {
			sp := spans.start(obs.NewTraceID(), obs.SpanID{}, "replay.job."+c.name)
			durable, memory, err := replayJobs(fs, c, seed)
			sp.end(nil)
			if err != nil {
				return rep, fmt.Errorf("%s: %w", c.name, err)
			}
			rep.durable, rep.memory = append(rep.durable, durable), append(rep.memory, memory)
			rep.jobNames = append(rep.jobNames, c.name)
		}
	}
	var perDraw []float64
	for _, c := range rep.costs {
		perDraw = append(perDraw, c.rngNS/float64(c.c.circ.NQubits))
	}
	rep.rngNS = median(perDraw)
	for _, n := range cross {
		c, err := namedCircuit(n)
		if err != nil {
			return rep, err
		}
		sp := spans.start(obs.NewTraceID(), obs.SpanID{}, "replay.crossover."+n)
		x, err := replayCrossover(c, seed)
		sp.end(nil)
		if err != nil {
			return rep, fmt.Errorf("crossover %s: %w", n, err)
		}
		rep.cross = append(rep.cross, x)
	}
	return rep, nil
}

// layerMetrics assembles the per-layer metrics. Per-request costs are
// weighted by how many operations used each circuit; per-simulation costs
// are plain means over the distinct circuits, each of which the daemon
// simulates once.
func layerMetrics(isServed, jobs bool, ops []opRec, roundLen int, m mix, rep replayed, delta counters) map[string]metric {
	weighted := func(f func(c costs) float64) float64 {
		t, n := 0.0, 0.0
		for k, c := range rep.costs {
			t += m.weights[k] * f(c)
			n += m.weights[k]
		}
		return t / n
	}
	mean := func(f func(c costs) float64) float64 {
		t := 0.0
		for _, c := range rep.costs {
			t += f(c)
		}
		return t / float64(len(rep.costs))
	}
	pooled := func(num, den func(c costs) float64) float64 { return ratio(mean(num), mean(den)) }

	// Daemon phases of the traced operations, and what no layer explains.
	var queue, sample, unattributed []float64
	for _, op := range ops {
		if !op.traced || op.err != nil {
			continue
		}
		lat := ms(op.end.Sub(op.start))
		queue = append(queue, float64(op.phases["queue"])/1e6)
		sample = append(sample, float64(op.phases["sample"])/1e6)
		known := 0.0
		for _, ns := range op.phases {
			known += float64(ns) / 1e6
		}
		// The daemon also hashes each circuit and encodes each answer
		// outside its phase spans; the library path does neither.
		if k, ok := m.at[op.i]; ok {
			known += rep.costs[k].hashUS/1e3 + rep.costs[k].encodeMS
		} else if isServed {
			known += weighted(func(c costs) float64 { return c.hashUS/1e3 + c.encodeMS })
		}
		unattributed = append(unattributed, lat-known)
	}
	// Traced and untraced rounds alternate, so each side sees the same mix.
	var tracedLat, plainLat []float64
	for _, r := range rounds(ops, roundLen) {
		if r.traced {
			tracedLat = append(tracedLat, ms(r.end.Sub(r.start)))
		} else {
			plainLat = append(plainLat, ms(r.end.Sub(r.start)))
		}
	}
	overhead := 0.0
	if len(tracedLat) > 0 && len(plainLat) > 0 {
		overhead = (median(tracedLat)/median(plainLat) - 1) * 100
	}
	// Wall-clock latency of the untraced operations.
	var wall []float64
	for _, op := range ops {
		if !op.traced {
			wall = append(wall, ms(op.end.Sub(op.start)))
		}
	}
	sort.Float64s(wall)
	wallP99 := 0.0
	if len(wall) > 0 {
		wallP99 = wall[tailRank(len(wall))]
	}

	// Job phases: the window's own jobs on batch_jobs, the durable replay
	// elsewhere.
	phase := map[string]int64{}
	chunks := 0
	if jobs {
		for _, op := range ops {
			if op.err != nil {
				continue
			}
			for p, ns := range op.phases {
				phase[p] += ns
			}
			chunks += m.parts
		}
	} else {
		for _, r := range rep.durable {
			for p, ns := range r.phases {
				phase[p] += ns
			}
			chunks += r.chunks
		}
	}
	perChunk := func(p string) float64 { return ratio(float64(phase[p])/1e6, float64(chunks)) }
	walTotal := float64(phase["snapshot"] + phase["sample"] + phase["wal"])
	var walDelta, replayChunkTotal float64
	for k := range rep.durable {
		walDelta += ms(rep.durable[k].wall - rep.memory[k].wall)
		replayChunkTotal += float64(rep.durable[k].chunks)
	}

	var prefixBuild, prefixNS float64
	for _, x := range rep.cross {
		prefixBuild += x.prefixBuildMS / float64(len(rep.cross))
		prefixNS += x.prefixNS / float64(len(rep.cross))
	}

	return map[string]metric{
		"qasm.parse_us":               {weighted(func(c costs) float64 { return c.parseUS }), "us"},
		"serve.hash_us":               {weighted(func(c costs) float64 { return c.hashUS }), "us"},
		"serve.queue_wait_ms":         {meanOf(queue), "ms"},
		"serve.cache_hit_ratio":       {ratio(float64(delta.hits), float64(delta.hits+delta.misses)), "ratio"},
		"serve.sims":                  {float64(delta.sims), "count"},
		"serve.cache_evictions":       {float64(delta.evictions), "count"},
		"serve.sample_ms":             {meanOf(sample), "ms"},
		"serve.encode_ms":             {weighted(func(c costs) float64 { return c.encodeMS }), "ms"},
		"serve.response_kb":           {weighted(func(c costs) float64 { return c.responseKB }), "KB"},
		"serve.unattributed_ms":       {median(unattributed), "ms"},
		"sim.build_ms":                {mean(func(c costs) float64 { return c.buildMS }), "ms"},
		"sim.apply_ms":                {mean(func(c costs) float64 { return c.applyMS }), "ms"},
		"dd.freeze_ms":                {mean(func(c costs) float64 { return c.freezeMS }), "ms"},
		"dd.snapshot_nodes":           {mean(func(c costs) float64 { return c.snapNodes }), "count"},
		"dd.peak_nodes":               {mean(func(c costs) float64 { return c.peakNodes }), "count"},
		"dd.cache_hit_ratio":          {pooled(func(c costs) float64 { return c.cacheHits }, func(c costs) float64 { return c.cacheLookups }), "ratio"},
		"dd.unique_probe_len":         {pooled(func(c costs) float64 { return c.probes }, func(c costs) float64 { return c.uniqueLookups }), "probes/lookup"},
		"dd.gc_runs":                  {mean(func(c costs) float64 { return c.gcRuns }), "count"},
		"rng.ns_per_draw":             {rep.rngNS, "ns"},
		"core.walk_ns_per_shot":       {weighted(func(c costs) float64 { return c.walkNS }), "ns"},
		"core.tally_ns_per_shot":      {weighted(func(c costs) float64 { return c.tallyNS }), "ns"},
		"core.merge_ms":               {weighted(func(c costs) float64 { return c.mergeMS }), "ms"},
		"core.distinct_per_1k_shots":  {weighted(func(c costs) float64 { return c.distinctPer1k }), "count"},
		"cluster.ship_kb":             {mean(func(c costs) float64 { return c.shipKB }), "KB"},
		"cluster.ship_ms":             {mean(func(c costs) float64 { return c.shipMS }), "ms"},
		"job.snapshot_ms_per_chunk":   {perChunk("snapshot"), "ms"},
		"job.sample_ms_per_chunk":     {perChunk("sample"), "ms"},
		"job.wal_ms_per_chunk":        {perChunk("wal"), "ms"},
		"job.wal_share":               {ratio(float64(phase["wal"]), walTotal), "ratio"},
		"job.chunks":                  {float64(chunks), "count"},
		"job.replay_wal_ms_per_chunk": {ratio(walDelta, replayChunkTotal), "ms"},
		"core.prefix_build_ms":        {prefixBuild, "ms"},
		"core.prefix_ns_per_shot":     {prefixNS, "ns"},
		"obs.trace_overhead_pct":      {overhead, "%"},
		"wall.latency_p50_ms":         {percentile(wall, 0.50), "ms"},
		"wall.latency_p99_ms":         {wallP99, "ms"},
	}
}

// print writes the per-circuit split of the sampling path and the
// crossover comparison (README.md records both).
func (rep replayed) print(out io.Writer, m mix) {
	fmt.Fprintf(out, "per-shot split at %d shots in %d part(s) per answer (ns/shot; rng = one draw per qubit, timed alone):\n", m.shots, m.parts)
	fmt.Fprintf(out, "  %-20s %6s %9s %8s %9s %8s %8s %8s %12s\n", "circuit", "qubits", "walk+rng", "rng", "walk", "tally", "merge", "encode", "distinct/1k")
	for _, c := range rep.costs {
		perShot := func(msPerAnswer float64) float64 { return msPerAnswer * 1e6 / float64(m.shots) }
		fmt.Fprintf(out, "  %-20s %6d %9.1f %8.1f %9.1f %8.1f %8.1f %8.1f %12.1f\n", c.c.name, c.c.circ.NQubits, c.walkNS, c.rngNS,
			c.walkNS-c.rngNS, c.tallyNS, perShot(c.mergeMS), perShot(c.encodeMS), c.distinctPer1k)
	}
	fmt.Fprintln(out, "crossover, prefix-sum sampler against the frozen walk (ns/shot):")
	fmt.Fprintf(out, "  %-12s %6s %12s %10s %10s %12s %10s\n", "circuit", "qubits", "prefix_build", "prefix", "walk+rng", "prefix_tally", "dd_tally")
	for _, x := range rep.cross {
		fmt.Fprintf(out, "  %-12s %6d %10.2fms %10.1f %10.1f %12.1f %10.1f\n", x.name, x.qubits, x.prefixBuildMS,
			x.prefixNS, x.walkNS, x.prefixTallyNS, x.tallyNS)
	}
	for k, n := range rep.jobNames {
		d, mem := rep.durable[k], rep.memory[k]
		fmt.Fprintf(out, "job replay %-20s %d chunks: durable %.1f ms, in memory %.1f ms, phases %v\n", n, d.chunks, ms(d.wall), ms(mem.wall), d.phases)
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
