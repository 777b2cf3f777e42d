package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"weaksim/internal/core"
	"weaksim/internal/job"
	"weaksim/internal/rng"
)

// jobShots is the size of one batch job: eight default-size chunks.
const jobShots = 8 * job.DefaultChunkShots

// jobsRunner drives durable batch jobs: one tenant keeps one job
// outstanding, cycling over cached circuits.
type jobsRunner struct {
	cfg   config
	set   []*benchCircuit
	order []int
	seeds []uint64
	shots int
	st    *stack
}

// newJobs cycles over circuits whose results hold at most a few thousand
// distinct outcomes. Every WAL compaction rewrites each retained job's
// counts, so high-entropy results make compaction grow as jobs finish, and
// qft_16 drives the job store off a cliff within one window (README.md,
// findings): every number here would depend on how many jobs had finished.
func newJobs(cfg config) runner {
	names := []string{"grover_12", "shor_33_2", "jellium_2x2"}
	shots := jobShots
	if cfg.small {
		names, shots = []string{"qft_8"}, 4*job.DefaultChunkShots
	}
	set := circuitList(names...)
	r := rng.New(cfg.seed)
	d := &jobsRunner{cfg: cfg, set: set, order: shuffled(r, len(set)), shots: shots}
	// One seed per circuit: references cost a full job's walk each.
	for range set {
		d.seeds = append(d.seeds, r.Uint64())
	}
	return d
}

func (d *jobsRunner) roundLen() int { return len(d.set) }

func (d *jobsRunner) stack() *stack { return d.st }

func (d *jobsRunner) boot() error {
	st, err := startStack(true)
	if err != nil {
		return err
	}
	d.st = st
	return st.warm(warmBodies(d.set))
}

func (d *jobsRunner) shutdown() {
	d.st.close()
	d.st = nil
}

func (d *jobsRunner) pick(i int) (*benchCircuit, uint64) {
	k := d.order[i%len(d.order)]
	return d.set[k], d.seeds[k]
}

func (d *jobsRunner) mix(ops []opRec) mix {
	spec := job.Spec{Shots: d.shots, ChunkShots: job.DefaultChunkShots}
	return weigh(ops, len(ops), func(i int) *benchCircuit { c, _ := d.pick(i); return c }, d.shots, spec.ChunksTotal())
}

// op submits one job, follows its /events stream until the terminal frame,
// and fetches the result. Its latency and CPU time run from the submit to
// the result's last byte.
func (d *jobsRunner) op(i int) (rec opRec) {
	c, seed := d.pick(i)
	body := fmt.Sprintf(`{%s,"shots":%d,"seed":%d,"tenant":"t0"}`, c.source, d.shots, seed)
	cpu := cpuTime()
	rec = opRec{i: i, kind: c.name, shots: d.shots, start: time.Now()}
	defer func() {
		if rec.end.IsZero() { // a failure returned early
			rec.end, rec.cpu = time.Now(), cpuTime()-cpu
		}
	}()
	var header http.Header
	if tid, sid := d.cfg.traceIDs(i, d.roundLen()); !tid.IsZero() {
		header = traceHeader(tid, sid)
		rec.traced, rec.traceID, rec.spanID = true, tid, sid
	}
	x := d.st.send(http.MethodPost, d.st.base+"/v1/jobs", []byte(body), header)
	if rec.err = x.failure(http.StatusAccepted); rec.err != nil {
		return rec
	}
	var st job.Status
	if rec.err = json.Unmarshal(x.body, &st); rec.err != nil {
		return rec
	}
	if rec.phases, rec.err = d.follow(st.ID); rec.err != nil {
		return rec
	}
	x = d.st.send(http.MethodGet, d.st.base+"/v1/jobs/"+st.ID+"/result", nil, nil)
	rec.end, rec.cpu = time.Now(), cpuTime()-cpu
	if rec.err = x.failure(http.StatusOK); rec.err == nil {
		rec.ans, rec.err = scanAnswer(x.body)
	}
	return rec
}

// follow reads a job's NDJSON progress frames until the terminal one and
// returns its per-phase totals.
func (d *jobsRunner) follow(id string) (map[string]int64, error) {
	resp, err := d.st.client.Get(d.st.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev job.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		if ev.Terminal {
			if ev.State != job.StateCompleted {
				return nil, fmt.Errorf("job %s ended %s: %s", id, ev.State, ev.Error)
			}
			// Drain to EOF so the connection is reused.
			for sc.Scan() {
			}
			return ev.PhaseNS, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("events: stream ended before a terminal frame")
}

// verify compares every result with the in-process reference: chunk i
// sampled from rng.Stream(seed, i), merged.
func (d *jobsRunner) verify(ops []opRec) {
	references(ops, d.pick, func(s core.Sampler, seed uint64, qubits int) answer {
		spec := job.Spec{Shots: d.shots, ChunkShots: job.DefaultChunkShots}
		merged := map[uint64]int{}
		for i := 0; i < spec.ChunksTotal(); i++ {
			core.MergeCounts(merged, core.Counts(s, rng.Stream(seed, i), spec.ChunkShotCount(i)))
		}
		return answerOf(merged, qubits)
	}).check(ops)
}
