package main

import (
	"fmt"
	"time"

	"weaksim"
	"weaksim/internal/rng"
	"weaksim/internal/stats"
)

// chiSquareMaxQubits bounds the rows checked against exact Born
// probabilities: a dense 2^18 vector is cheap, 2^32 is not.
const chiSquareMaxQubits = 18

// chiSquareFloor is the p-value below which a row counts as wrong. Rows
// are drawn with fresh seeds, so under a correct sampler a run of a few
// hundred rows fails by chance with probability well under 1e-3.
const chiSquareFloor = 1e-6

// tableRunner is the paper's own unit with no HTTP: one operation is one
// Table I row, strongly simulated, frozen, and sampled 1M times through the
// weaksim facade, and a round is one pass over the rows.
type tableRunner struct {
	cfg   config
	names []string
	rows  []*benchCircuit
	shots int
}

// rowResult is what one row of one pass delivered, kept for verification.
type rowResult struct {
	total   int
	inRange bool    // every sampled index fits the register
	hist    []int32 // dense counts for rows checked by chi-square
}

func newTable(cfg config) runner {
	d := &tableRunner{cfg: cfg, names: []string{"qft_32", "shor_33_2", "jellium_2x2", "supremacy_4x4_10"}, shots: 1_000_000}
	if cfg.small {
		d.names, d.shots = []string{"qft_8", "jellium_2x2"}, 20_000
	}
	return d
}

func (d *tableRunner) roundLen() int { return len(d.names) }

// boot generates the rows and strongly simulates and freezes each one, the
// library's counterpart of a replica's prewarm: set-up ends when a sampler
// for every row could be handed to a caller. The passes in the window
// repeat this work, since the paper's unit includes it.
func (d *tableRunner) boot() error {
	d.rows = d.rows[:0]
	for _, n := range d.names {
		c, err := namedCircuit(n)
		if err != nil {
			return err
		}
		st, err := weaksim.Simulate(c.circ)
		if err == nil {
			_, err = st.Sampler(weaksim.WithWorkers(1))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		d.rows = append(d.rows, c)
	}
	return nil
}

func (d *tableRunner) shutdown() {}

func (d *tableRunner) mix(ops []opRec) mix {
	m := mix{circuits: d.rows, at: map[int]int{}, shots: d.shots, parts: 1}
	for range d.rows {
		m.weights = append(m.weights, 1)
	}
	return m
}

// row runs row k once with the given sampling seed. A traced row attaches
// a metrics registry and times the facade's three calls.
func (d *tableRunner) row(k int, seed uint64, phases map[string]int64) (map[uint64]int, error) {
	opts := []weaksim.Option{weaksim.WithSeed(seed)}
	if phases != nil {
		opts = append(opts, weaksim.WithMetrics(weaksim.NewMetrics()))
	}
	lap := func(name string, t0 time.Time) {
		if phases != nil {
			phases[name] += time.Since(t0).Nanoseconds()
		}
	}
	c := d.rows[k]
	t0 := time.Now()
	st, err := weaksim.Simulate(c.circ, opts...)
	lap("simulate", t0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	t0 = time.Now()
	smp, err := st.Sampler(weaksim.WithWorkers(1))
	lap("freeze", t0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	t0 = time.Now()
	counts := smp.CountsByIndex(d.shots)
	lap("sample", t0)
	return counts, nil
}

func (d *tableRunner) op(i int) opRec {
	k := i % len(d.rows)
	rec := opRec{i: i, kind: d.rows[k].name, shots: d.shots}
	if tid, sid := d.cfg.traceIDs(i, d.roundLen()); !tid.IsZero() {
		rec.traced, rec.traceID, rec.spanID, rec.phases = true, tid, sid, map[string]int64{}
	}
	seed := rng.Stream(d.cfg.seed, i+1).Uint64()
	cpu := cpuTime()
	rec.start = time.Now()
	counts, err := d.row(k, seed, rec.phases)
	rec.end, rec.cpu = time.Now(), cpuTime()-cpu
	if err != nil {
		rec.err = err
		return rec
	}
	q := d.rows[k].circ.NQubits
	r := rowResult{inRange: true}
	if q <= chiSquareMaxQubits {
		r.hist = make([]int32, 1<<q)
	}
	for idx, n := range counts {
		r.total += n
		if q < 64 && idx>>uint(q) != 0 {
			r.inRange = false
			continue
		}
		if r.hist != nil {
			r.hist[idx] += int32(n)
		}
	}
	rec.payload = r
	return rec
}

// verify checks every row: the counts sum to the shots, fit the register,
// and, for rows up to chiSquareMaxQubits, pass a chi-square test against
// the exact Born probabilities.
func (d *tableRunner) verify(ops []opRec) {
	probs := make([][]float64, len(d.rows))
	errs := make([]error, len(d.rows))
	parallel(len(d.rows), func(k int) {
		if d.rows[k].circ.NQubits > chiSquareMaxQubits {
			return
		}
		st, err := weaksim.Simulate(d.rows[k].circ)
		if err == nil {
			probs[k], err = st.Probabilities()
		}
		errs[k] = err
	})
	for j := range ops {
		if ops[j].err != nil {
			continue
		}
		k := ops[j].i % len(d.rows)
		ops[j].err = d.check(k, ops[j].payload.(rowResult), probs[k], errs[k])
	}
}

func (d *tableRunner) check(k int, r rowResult, probs []float64, refErr error) error {
	name := d.names[k]
	switch {
	case r.total != d.shots:
		return fmt.Errorf("%s: counts sum to %d, want %d", name, r.total, d.shots)
	case !r.inRange:
		return fmt.Errorf("%s: sampled index outside the %d-qubit register", name, d.rows[k].circ.NQubits)
	case r.hist == nil:
		return nil
	case refErr != nil:
		return fmt.Errorf("%s: reference: %w", name, refErr)
	}
	counts := make(map[uint64]int, len(r.hist))
	for idx, n := range r.hist {
		if n > 0 {
			counts[uint64(idx)] = int(n)
		}
	}
	chi, err := stats.ChiSquareGOF(counts, probs, d.shots)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if chi.PValue < chiSquareFloor {
		return fmt.Errorf("%s: chi-square p=%.3g against exact Born probabilities", name, chi.PValue)
	}
	return nil
}
