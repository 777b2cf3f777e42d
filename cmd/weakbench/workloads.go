package main

import (
	"net/http"
	"sort"
	"strconv"

	"weaksim/internal/core"
	"weaksim/internal/rng"
)

// workload is one named traffic mix. README.md records why each exists.
type workload struct {
	name      string
	newRunner func(cfg config) runner
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	register(&workload{name: "interactive_direct", newRunner: newInteractive})
	register(&workload{name: "bulk_direct", newRunner: newBulk})
	register(&workload{name: "batch_jobs", newRunner: newJobs})
	register(&workload{name: "paper_table1", newRunner: newTable})
}

// seedPool is how many sampling seeds each interactive circuit draws from.
// Answers repeat across the pool, so verification needs one reference per
// (circuit, seed) rather than one per request; the daemon has no response
// cache, so repeats cost it the same as fresh seeds.
const seedPool = 16

// sampleReq is one /v1/sample request.
type sampleReq struct {
	c    *benchCircuit
	seed uint64
}

func (r sampleReq) body(shots, workers int) []byte {
	b := make([]byte, 0, len(r.c.source)+80)
	b = append(b, '{')
	b = append(b, r.c.source...)
	b = append(b, `,"shots":`...)
	b = strconv.AppendInt(b, int64(shots), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, r.seed, 10)
	b = append(b, `,"workers":`...)
	b = strconv.AppendInt(b, int64(workers), 10)
	return append(b, '}')
}

// sampleRunner drives POST /v1/sample against one replica.
type sampleRunner struct {
	cfg     config
	shots   int
	workers int
	// round is how many consecutive requests make one round.
	round int
	// warm are the requests boot sends before the window opens.
	warm [][]byte
	plan func(i int) sampleReq
	st   *stack
}

// interactiveRound is how many requests make one interactive round.
const interactiveRound = 128

// newInteractive is the warm interactive mix: ten prewarmed circuits drawn
// by a Zipf (s=1) law over a fixed rank order. The draw is stratified: a
// round of interactiveRound requests holds each circuit as often as its
// Zipf weight says, in a seeded order, so every round costs the same work
// and a seed varies only the order and the sampling seeds. The first six
// circuits go as QASM, the last four by name.
func newInteractive(cfg config) runner {
	names := []string{"q:qft_16", "q:qft_32", "q:jellium_2x2", "q:supremacy_3x3_10", "q:ghz_24", "q:bv_20",
		"shor_33_2", "grover_12", "shor_21_2", "supremacy_4x4_10"}
	shots, round := 1024, interactiveRound
	if cfg.small {
		names, shots, round = []string{"q:qft_8", "q:ghz_5", "grover_4"}, 256, 8
	}
	set := circuitList(names...)
	r := rng.New(cfg.seed)
	pool := make([][]uint64, len(set))
	for k := range set {
		pool[k] = make([]uint64, seedPool)
		for j := range pool[k] {
			pool[k][j] = r.Uint64()
		}
	}
	deck := zipfDeck(len(set), round)
	return &sampleRunner{
		cfg: cfg, shots: shots, workers: 1, round: round, warm: warmBodies(set),
		plan: func(i int) sampleReq {
			// Round i/round draws its order, then one pool index per
			// position, from its own stream.
			s := rng.Stream(cfg.seed, i/round+1)
			k := deck[shuffled(s, round)[i%round]]
			for p := 0; p < i%round; p++ {
				s.IntN(seedPool)
			}
			return sampleReq{set[k], pool[k][s.IntN(seedPool)]}
		},
	}
}

// zipfDeck lists circuit ranks 0..n-1 so that rank k appears in proportion
// to 1/(k+1), size entries in all, rounded by largest remainder.
func zipfDeck(n, size int) []int {
	h := 0.0
	for k := 0; k < n; k++ {
		h += 1 / float64(k+1)
	}
	counts := make([]int, n)
	rest := make([]int, n)
	left := size
	for k := range counts {
		exact := float64(size) / float64(k+1) / h
		counts[k] = int(exact)
		left -= counts[k]
		rest[k] = k
	}
	frac := func(k int) float64 { e := float64(size) / float64(k+1) / h; return e - float64(int(e)) }
	sort.SliceStable(rest, func(a, b int) bool { return frac(rest[a]) > frac(rest[b]) })
	for _, k := range rest[:left] {
		counts[k]++
	}
	var deck []int
	for k, c := range counts {
		for ; c > 0; c-- {
			deck = append(deck, k)
		}
	}
	return deck
}

// warmBodies asks for one shot of each circuit, so boot simulates and
// caches all of them.
func warmBodies(set []*benchCircuit) [][]byte {
	var bodies [][]byte
	for _, c := range set {
		bodies = append(bodies, sampleReq{c, 1}.body(1, 1))
	}
	return bodies
}

// newBulk cycles 1M-shot requests over cached circuits in a seeded order,
// one sampling seed per circuit.
func newBulk(cfg config) runner {
	names := []string{"grover_12", "shor_33_2", "supremacy_4x4_10", "qft_16"}
	shots := 1_000_000
	if cfg.small {
		names, shots = []string{"qft_8", "grover_4"}, 20_000
	}
	set := circuitList(names...)
	r := rng.New(cfg.seed)
	order := shuffled(r, len(set))
	seeds := make([]uint64, len(set))
	for k := range seeds {
		seeds[k] = r.Uint64()
	}
	return &sampleRunner{
		cfg: cfg, shots: shots, workers: 2, round: len(set), warm: warmBodies(set),
		plan: func(i int) sampleReq {
			k := order[i%len(order)]
			return sampleReq{set[k], seeds[k]}
		},
	}
}

// shuffled is a seeded permutation of 0..n-1.
func shuffled(r *rng.RNG, n int) []int {
	p := make([]int, n)
	for k := range p {
		p[k] = k
	}
	for k := n - 1; k > 0; k-- {
		j := r.IntN(k + 1)
		p[k], p[j] = p[j], p[k]
	}
	return p
}

func (d *sampleRunner) roundLen() int { return d.round }

func (d *sampleRunner) mix(ops []opRec) mix {
	return weigh(ops, len(ops), func(i int) *benchCircuit { return d.plan(i).c }, d.shots, d.workers)
}

func (d *sampleRunner) boot() error {
	st, err := startStack(false)
	if err != nil {
		return err
	}
	d.st = st
	return st.warm(d.warm)
}

func (d *sampleRunner) shutdown() {
	d.st.close()
	d.st = nil
}

func (d *sampleRunner) op(i int) opRec {
	req := d.plan(i)
	url, header := d.st.base+"/v1/sample", http.Header(nil)
	tid, sid := d.cfg.traceIDs(i, d.round)
	if !tid.IsZero() {
		url += "?debug=1"
		header = traceHeader(tid, sid)
	}
	x := d.st.send(http.MethodPost, url, req.body(d.shots, d.workers), header)
	rec := opRec{i: i, kind: req.c.name, start: x.start, end: x.end, cpu: x.cpu, shots: d.shots, err: x.failure(http.StatusOK)}
	if rec.err == nil {
		rec.ans, rec.err = scanAnswer(x.body)
	}
	if !tid.IsZero() {
		rec.traced, rec.traceID, rec.spanID = true, tid, sid
		if rec.err == nil {
			rec.phases, rec.spans, rec.err = scanTrace(x.body)
		}
	}
	return rec
}

// verify compares every answer with core.CountsParallel over the
// benchmark's own frozen snapshot, with the request's seed and workers.
func (d *sampleRunner) verify(ops []opRec) {
	refs := references(ops, func(i int) (*benchCircuit, uint64) {
		r := d.plan(i)
		return r.c, r.seed
	}, func(s core.Sampler, seed uint64, qubits int) answer {
		counts, _ := core.CountsParallel(s, seed, d.shots, d.workers)
		return answerOf(counts, qubits)
	})
	refs.check(ops)
}
