package weaksim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/cluster"
	"weaksim/internal/cnum"
	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/gate"
	"weaksim/internal/obs"
	"weaksim/internal/rng"
	"weaksim/internal/serve"
	"weaksim/internal/statevec"
)

// Circuit is the quantum-circuit intermediate representation. Construct one
// with NewCircuit and the chainable gate methods (H, X, CX, CCX, ...), or
// obtain a paper benchmark via GenerateBenchmark.
type Circuit = circuit.Circuit

// Gate is a single-qubit gate instance; see the gate constructors
// re-exported below.
type Gate = gate.Gate

// Control designates a control qubit of a gate.
type Control = gate.Control

// Norm selects the decision-diagram edge-weight normalization scheme.
type Norm = dd.Norm

// Normalization schemes: NormLeft divides by the leftmost non-zero edge
// weight (the conventional scheme); NormL2 divides by the Euclidean norm of
// the weight pair (the paper's proposal, Section IV-C); NormL2Phase
// additionally extracts the leading phase for full canonicity. The default
// is NormL2Phase.
const (
	NormLeft    = dd.NormLeft
	NormL2      = dd.NormL2
	NormL2Phase = dd.NormL2Phase
)

// NewCircuit returns an empty circuit on n qubits. Qubit 0 is the least
// significant (rightmost) bit of a measured bitstring.
func NewCircuit(n int, name string) *Circuit { return circuit.New(n, name) }

// GenerateBenchmark builds one of the paper's Table I benchmark circuits by
// name: qft_A, grover_A, shor_N_a, jellium_AxA, supremacy_AxB_D, as well as
// running_example and figure1.
func GenerateBenchmark(name string) (*Circuit, error) { return algo.Generate(name) }

// TableIBenchmarks lists the names of the paper's Table I rows in order.
func TableIBenchmarks() []string { return algo.TableIBenchmarks() }

// ErrMemoryOut reports that a dense state vector would exceed the memory
// budget — the "MO" entries of the paper's Table I.
var ErrMemoryOut = statevec.ErrMemoryOut

// Method selects a sampling algorithm.
type Method int

const (
	// MethodDD samples by randomized decision-diagram traversal (paper
	// Section IV). The default.
	MethodDD Method = iota
	// MethodPrefix samples by binary search on a prefix-sum array (paper
	// Section III). Requires expanding the state to a dense vector.
	MethodPrefix
	// MethodLinear samples by linear traversal of the probability array.
	MethodLinear
	// MethodAlias samples by Walker's alias method (ablation).
	MethodAlias
)

// String returns the method name used in CLI flags and benchmarks.
func (m Method) String() string {
	switch m {
	case MethodDD:
		return "dd"
	case MethodPrefix:
		return "prefix"
	case MethodLinear:
		return "linear"
	case MethodAlias:
		return "alias"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod converts a CLI flag value into a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "dd":
		return MethodDD, nil
	case "prefix":
		return MethodPrefix, nil
	case "linear":
		return MethodLinear, nil
	case "alias":
		return MethodAlias, nil
	}
	return 0, fmt.Errorf("weaksim: unknown sampling method %q (want dd, prefix, linear, or alias)", s)
}

type config struct {
	norm         Norm
	seed         uint64
	method       Method
	vectorQubits int
	nodeBudget   int
	minFidelity  float64
	workers      int
	reg          *obs.Registry     // nil = metrics disabled (see WithMetrics)
	tracer       *obs.RequestTrace // nil = tracing disabled (see WithTracer)
}

func newConfig(opts []Option) config {
	c := config{norm: NormL2Phase, seed: 1, method: MethodDD, workers: 1}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Option configures simulation and sampling.
type Option func(*config)

// WithNormalization selects the DD normalization scheme (default
// NormL2Phase).
func WithNormalization(n Norm) Option { return func(c *config) { c.norm = n } }

// WithSeed seeds all randomness (default 1). Equal seeds give identical
// samples.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithMethod selects the sampling algorithm (default MethodDD).
func WithMethod(m Method) Option { return func(c *config) { c.method = m } }

// WithVectorBudget bounds dense state vectors to 2^qubits amplitudes
// (default statevec.DefaultMaxQubits = 26). Larger circuits yield
// ErrMemoryOut from the dense paths, mirroring the paper's MO entries.
func WithVectorBudget(qubits int) Option { return func(c *config) { c.vectorQubits = qubits } }

// WithWorkers shards batch sampling (Counts, CountsByIndex, and their
// context-aware variants) across up to n goroutines walking the same
// immutable state snapshot concurrently (see core.CountsParallel). The
// worker count never changes the counts: equal seeds give equal batches at
// any level of parallelism. n ≤ 0 selects runtime.GOMAXPROCS(0); the
// default is 1. Single-shot draws (Shot, ShotIndex) are always sequential.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithNodeBudget bounds the decision-diagram engine to n live nodes — the
// DD-side analogue of WithVectorBudget. Simulations whose diagrams outgrow
// the budget (supremacy- and Shor-class states) fail with ErrNodeBudget
// instead of exhausting memory; SimulateAuto can additionally degrade to a
// fidelity-bounded approximation under WithMinFidelity. 0 (the default)
// means unlimited.
func WithNodeBudget(nodes int) Option { return func(c *config) { c.nodeBudget = nodes } }

// WithMinFidelity enables graceful degradation in SimulateAuto: when the DD
// backend hits its node budget, the in-flight state is pruned
// (core.Approximate) as long as the cumulative fidelity |⟨approx|exact⟩|²
// stays at or above floor. The default 0 disables approximation — budget
// overruns then surface as ErrNodeBudget.
func WithMinFidelity(floor float64) Option { return func(c *config) { c.minFidelity = floor } }

// State is a strongly-simulated final quantum state, ready for repeated
// weak simulation. Simulate and SimulateContext always produce
// decision-diagram-backed states; SimulateAuto may instead produce a
// dense-vector-backed state when the vector backend wins its tier of the
// degradation policy. DD-only operations (Approximate, MeasureQubit,
// TopOutcomes, WriteDOT) return an error on vector-backed states.
type State struct {
	mgr   *dd.Manager
	edge  dd.VEdge
	dense *statevec.State // non-nil iff the vector backend produced the state
	cfg   config
}

// Simulate strongly simulates the circuit on the decision-diagram backend
// and returns the final state. With WithNodeBudget set, simulations whose
// diagrams outgrow the budget fail with ErrNodeBudget.
func Simulate(c *Circuit, opts ...Option) (*State, error) {
	return SimulateContext(context.Background(), c, opts...)
}

// errVectorBacked reports a DD-only operation on a vector-backed state.
var errVectorBacked = errors.New("weaksim: operation requires a decision-diagram state (this state was produced by SimulateAuto's vector backend; use Simulate to force the DD backend)")

// Qubits returns the number of qubits of the state.
func (s *State) Qubits() int {
	if s.dense != nil {
		return s.dense.Qubits()
	}
	return s.mgr.Qubits()
}

// NodeCount returns the number of decision-diagram nodes representing the
// state — the "size" column of the paper's Table I. Vector-backed states
// have no diagram and report 0.
func (s *State) NodeCount() int {
	if s.dense != nil {
		return 0
	}
	return s.mgr.NodeCount(s.edge)
}

// Norm2 returns the squared norm of the state (1 for a valid state).
func (s *State) Norm2() float64 {
	if s.dense != nil {
		return s.dense.Norm2()
	}
	return s.mgr.Norm2(s.edge)
}

// Amplitude returns the amplitude of the basis state written as a bitstring
// (most significant qubit first, as printed by Sampler.Shot).
func (s *State) Amplitude(bits string) (complex128, error) {
	idx, err := core.ParseBits(bits)
	if err != nil {
		return 0, err
	}
	return s.AmplitudeAt(idx)
}

// AmplitudeAt returns the amplitude of basis-state index idx (bit k of idx
// is qubit k).
func (s *State) AmplitudeAt(idx uint64) (complex128, error) {
	if s.Qubits() < 64 && idx >= uint64(1)<<uint(s.Qubits()) {
		return 0, fmt.Errorf("weaksim: basis state %d out of range", idx)
	}
	if s.dense != nil {
		return s.dense.Amplitude(idx).ToComplex128(), nil
	}
	return s.mgr.Amplitude(s.edge, idx).ToComplex128(), nil
}

// Probability returns the Born probability of the basis state written as a
// bitstring.
func (s *State) Probability(bits string) (float64, error) {
	a, err := s.Amplitude(bits)
	if err != nil {
		return 0, err
	}
	return real(a)*real(a) + imag(a)*imag(a), nil
}

// Probabilities expands the full Born distribution. It fails with
// ErrMemoryOut when the state exceeds the vector budget; that is the point
// at which only MethodDD sampling remains available.
func (s *State) Probabilities() ([]float64, error) {
	amps, err := s.vector()
	if err != nil {
		return nil, err
	}
	probs := make([]float64, len(amps))
	for i, a := range amps {
		probs[i] = a.Abs2()
	}
	return probs, nil
}

func (s *State) vector() ([]cnum.Complex, error) {
	if s.dense != nil {
		// Vector-backed states already paid the dense cost; the budget was
		// enforced when the backend allocated.
		return s.dense.Amplitudes(), nil
	}
	budget := s.cfg.vectorQubits
	if budget <= 0 {
		budget = statevec.DefaultMaxQubits
	}
	if s.Qubits() > budget || s.Qubits() > dd.MaxDenseQubits {
		return nil, fmt.Errorf("%w: %d qubits exceed the dense budget %d",
			ErrMemoryOut, s.Qubits(), budget)
	}
	return s.mgr.ToVector(s.edge)
}

// Sampler prepares repeated weak simulation of the state with the
// configured method. The state's options (seed, method, budget) may be
// overridden per sampler.
func (s *State) Sampler(opts ...Option) (*Sampler, error) {
	cfg := s.cfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.method == MethodDD && s.dense != nil {
		// Vector-backed states have no diagram to traverse; the prefix
		// sampler is the natural equivalent (same O(n) per-sample cost).
		cfg.method = MethodPrefix
	}
	var inner core.Sampler
	var frozen *core.FrozenSampler
	switch cfg.method {
	case MethodDD:
		// Freeze-then-sample (paper Section IV over immutable arrays): the
		// final state DD is converted once into a flat, pointer-free snapshot,
		// the sampler derives its walk table of branch thresholds from it,
		// and every walk thereafter is a lock-free traversal of that table.
		// After the freeze the Manager is no longer needed
		// for sampling: it may be reused for the next circuit or
		// garbage-collected while sampling proceeds, and the walks can never
		// hit the node budget.
		sp := obs.StartSpan(cfg.reg, cfg.tracer, obs.PhaseFreeze)
		snap, err := s.mgr.Freeze(s.edge)
		sp.End(nil)
		if err != nil {
			return nil, fmt.Errorf("weaksim: %w", err)
		}
		frozen, err = core.NewFrozenSampler(snap)
		if err != nil {
			return nil, err
		}
		if cfg.reg != nil {
			cfg.reg.Gauge("snapshot_nodes").Set(int64(snap.Len()))
			cfg.reg.Gauge("snapshot_bytes").Set(int64(snap.Bytes()))
		}
		inner = frozen
	case MethodPrefix, MethodLinear, MethodAlias:
		// For the dense family the probability expansion and prefix-sum /
		// alias-table construction is the analogue of the DD freeze (the
		// one-off pass before sampling), so it lands in the same phase bucket.
		sp := obs.StartSpan(cfg.reg, cfg.tracer, obs.PhaseFreeze)
		amps, err := s.vector()
		if err != nil {
			sp.End(nil)
			return nil, err
		}
		probs := core.ProbabilitiesFromAmplitudes(amps)
		switch cfg.method {
		case MethodPrefix:
			inner, err = core.NewPrefixSampler(probs)
		case MethodLinear:
			inner, err = core.NewLinearSampler(probs)
		default:
			inner, err = core.NewAliasSampler(probs)
		}
		sp.End(nil)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("weaksim: unknown sampling method %v", cfg.method)
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	smp := &Sampler{inner: inner, n: s.Qubits(), rand: rng.New(cfg.seed), frozen: frozen, workers: workers}
	if cfg.reg != nil || cfg.tracer != nil {
		smp.reg = cfg.reg
		smp.tr = cfg.tracer
		smp.walkHist = cfg.reg.Histogram("sample_walk_ns", obs.WalkLatencyBounds)
		smp.shotsCtr = cfg.reg.Counter("sample_shots_total")
		smp.renorms = cfg.reg.Counter("sample_renorm_total")
	}
	return smp, nil
}

// Sampler draws measurement outcomes from a simulated state. It is a
// read-only view: sampling may be repeated indefinitely. For MethodDD the
// sampler owns an immutable snapshot of the state (see Manager.Freeze), so
// it remains valid even if the originating simulation engine is reused or
// garbage-collected.
type Sampler struct {
	inner   core.Sampler
	n       int
	rand    *rng.RNG
	workers int

	// Telemetry (all nil when disabled — the hot ShotIndex path then costs
	// one nil-check over the raw walk).
	reg      *obs.Registry
	tr       *obs.RequestTrace
	walkHist *obs.Histogram
	shotsCtr *obs.Counter
	renorms  *obs.Counter
	frozen   *core.FrozenSampler // non-nil for MethodDD: renorm-event source
	nShots   uint64
}

// walkTimingEvery throttles per-shot walk timing: one in this many shots is
// wall-clocked into the sample_walk_ns histogram, so timing overhead stays
// a fraction of a percent of the sampling loop even when metrics are on.
const walkTimingEvery = 64

// Qubits returns the width of sampled bitstrings.
func (s *Sampler) Qubits() int { return s.n }

// ShotIndex draws one sample as a basis-state index.
func (s *Sampler) ShotIndex() uint64 {
	if s.walkHist == nil {
		return s.inner.Sample(s.rand)
	}
	return s.shotObserved()
}

// shotObserved is the metrics-enabled shot path, kept out of ShotIndex so
// the disabled path stays inlineable.
func (s *Sampler) shotObserved() uint64 {
	s.nShots++
	s.shotsCtr.Inc()
	if s.nShots%walkTimingEvery != 0 {
		return s.inner.Sample(s.rand)
	}
	start := time.Now()
	idx := s.inner.Sample(s.rand)
	s.walkHist.ObserveDuration(time.Since(start))
	s.syncWalkStats()
	return idx
}

// syncWalkStats mirrors the frozen sampler's renormalization-event count
// (zero-edge fallbacks caused by floating-point slack) into the registry.
func (s *Sampler) syncWalkStats() {
	if s.frozen != nil {
		s.renorms.Set(s.frozen.Renorms())
	}
}

// Workers returns the batch-sampling worker count configured with
// WithWorkers (after GOMAXPROCS resolution).
func (s *Sampler) Workers() int { return s.workers }

// SnapshotNodes returns the node count of the frozen state snapshot backing
// a MethodDD sampler — the paper's "size" column, as frozen. Vector-method
// samplers have no snapshot and report 0.
func (s *Sampler) SnapshotNodes() int {
	if s.frozen == nil {
		return 0
	}
	return s.frozen.Snapshot().Len()
}

// Shot draws one sample as a bitstring, most significant qubit first —
// exactly what a physical quantum computer would print.
func (s *Sampler) Shot() string { return core.FormatBits(s.ShotIndex(), s.n) }

// Counts draws shots samples and tallies them by bitstring. With
// WithWorkers(n > 1) the batch is sharded across up to n concurrent walkers
// over the immutable snapshot and merged deterministically.
func (s *Sampler) Counts(shots int) map[string]int {
	return core.BitstringCounts(s.CountsByIndex(shots), s.n)
}

// CountsByIndex draws shots samples and tallies them by basis-state index.
// The batch tallies by core's one rule (dense for n ≤ 20 qubits when 2^n ≤
// shots, else a preallocated map); the counts do not depend on which.
func (s *Sampler) CountsByIndex(shots int) map[uint64]int {
	counts, _ := s.CountsByIndexContext(context.Background(), shots)
	return counts
}

// CountsContext is Counts with cooperative cancellation, checked every
// core.CtxCheckShots samples. On cancellation it returns the partial
// tallies drawn so far alongside the context's error.
func (s *Sampler) CountsContext(ctx context.Context, shots int) (map[string]int, error) {
	idx, err := s.CountsByIndexContext(ctx, shots)
	return core.BitstringCounts(idx, s.n), err
}

// CountsByIndexContext is CountsByIndex with cooperative cancellation. On
// cancellation it returns the partial tallies alongside the context's error.
//
// Every batch splits a fresh batch seed off the sampler's stream (one
// Uint64 draw, so successive batches differ but remain a pure function of
// the sampler seed) and draws it with core.CountsParallelContext: chunk i
// from rng.Stream(batchSeed, i), whatever the worker count. All facade
// samplers are safe for concurrent use: the frozen DD snapshot is immutable
// and the vector-family samplers are read-only after construction.
func (s *Sampler) CountsByIndexContext(ctx context.Context, shots int) (map[uint64]int, error) {
	sp := obs.StartSpan(s.reg, s.tr, obs.PhaseSample)
	counts, err := core.CountsParallelContext(ctx, s.inner, s.rand.Uint64(), shots, s.workers)
	sp.End(nil)
	s.noteBatch(counts)
	return counts, err
}

// noteBatch accounts a batch drawn through the core helpers (which bypass
// ShotIndex): the actually drawn shot count — partial batches under
// cancellation report what was really drawn — plus the walk-stat mirror.
func (s *Sampler) noteBatch(counts map[uint64]int) {
	if s.shotsCtr == nil {
		return
	}
	var drawn uint64
	for _, n := range counts {
		drawn += uint64(n)
	}
	s.nShots += drawn
	s.shotsCtr.Add(drawn)
	s.syncWalkStats()
}

// Run is the one-call weak simulation of the paper's Fig. 2: strong
// simulation on the DD backend followed by shots measurement samples,
// returned as bitstring counts.
func Run(c *Circuit, shots int, opts ...Option) (counts map[string]int, err error) {
	defer guard(&err)
	if shots < 1 {
		return nil, errors.New("weaksim: shots must be positive")
	}
	state, err := Simulate(c, opts...)
	if err != nil {
		return nil, err
	}
	sampler, err := state.Sampler()
	if err != nil {
		return nil, err
	}
	return sampler.Counts(shots), nil
}

// Re-exported gate constructors for circuit building.
var (
	// XGate is the Pauli-X (NOT) gate.
	XGate = gate.XGate
	// YGate is the Pauli-Y gate.
	YGate = gate.YGate
	// ZGate is the Pauli-Z gate.
	ZGate = gate.ZGate
	// HGate is the Hadamard gate.
	HGate = gate.HGate
	// SGate is the phase gate diag(1, i).
	SGate = gate.SGate
	// TGate is the T gate diag(1, e^{iπ/4}).
	TGate = gate.TGate
)

// RXGate returns the X rotation by θ.
func RXGate(theta float64) Gate { return gate.RXGate(theta) }

// RYGate returns the Y rotation by θ.
func RYGate(theta float64) Gate { return gate.RYGate(theta) }

// RZGate returns the Z rotation by θ.
func RZGate(theta float64) Gate { return gate.RZGate(theta) }

// PhaseGate returns diag(1, e^{iθ}).
func PhaseGate(theta float64) Gate { return gate.PhaseGate(theta) }

// Pos is a positive control on qubit q.
func Pos(q int) Control { return gate.Pos(q) }

// Neg is a negative control on qubit q.
func Neg(q int) Control { return gate.Neg(q) }

// Approximate returns a pruned copy of the state: branches whose total
// traversal probability falls below threshold are removed and the rest is
// renormalized. The returned fidelity |⟨approx|exact⟩|² quantifies the
// sampling error introduced — weak simulation "with some error" in exchange
// for a smaller diagram.
func (s *State) Approximate(threshold float64) (*State, float64, error) {
	if s.dense != nil {
		return nil, 0, errVectorBacked
	}
	edge, fidelity, err := core.Approximate(s.mgr, s.edge, threshold)
	if err != nil {
		return nil, 0, err
	}
	return &State{mgr: s.mgr, edge: edge, cfg: s.cfg}, fidelity, nil
}

// MeasureQubit performs a destructive single-qubit measurement: it returns
// the observed bit and the collapsed, renormalized post-measurement state.
// Unlike Sampler (which is read-only and repeatable), this is the operation
// physical hardware actually offers.
func (s *State) MeasureQubit(qubit int, seed uint64) (int, *State, error) {
	if s.dense != nil {
		return 0, nil, errVectorBacked
	}
	bit, post, err := core.MeasureQubit(s.mgr, s.edge, qubit, rng.New(seed))
	if err != nil {
		return 0, nil, err
	}
	return bit, &State{mgr: s.mgr, edge: post, cfg: s.cfg}, nil
}

// QubitProbability returns the probability that measuring the given qubit
// yields 1.
func (s *State) QubitProbability(qubit int) (float64, error) {
	if s.dense != nil {
		if qubit < 0 || qubit >= s.Qubits() {
			return 0, fmt.Errorf("weaksim: qubit %d out of range", qubit)
		}
		var p float64
		bit := uint64(1) << uint(qubit)
		for i, a := range s.dense.Amplitudes() {
			if uint64(i)&bit != 0 {
				p += a.Abs2()
			}
		}
		return p, nil
	}
	return core.QubitProbability(s.mgr, s.edge, qubit)
}

// WriteDOT renders the state's decision diagram in Graphviz DOT format
// (render with `dot -Tsvg`), in the style of the paper's Fig. 4.
func (s *State) WriteDOT(w io.Writer, title string) error {
	if s.dense != nil {
		return errVectorBacked
	}
	return s.mgr.WriteDOT(w, s.edge, title)
}

// Optimize simplifies the circuit in place with exact, semantics-preserving
// rewrites (cancel self-inverse pairs, merge adjacent rotations, drop
// identities) and returns how many operations were eliminated.
func Optimize(c *Circuit) int {
	return circuit.Optimize(c).Total()
}

// Outcome is a basis state with its exact Born probability.
type Outcome struct {
	Bits        string
	Probability float64
}

// ServeConfig carries the server-side knobs of the sampling daemon (see
// Serve). Simulation-side options — normalization, node budget, metrics,
// tracer — are passed as regular Options, so the daemon is configured with
// exactly the same vocabulary as a library run. Zero fields select the
// serve package defaults.
type ServeConfig struct {
	// Addr is the listen address ("" or ":0" = ephemeral port).
	Addr string
	// DebugAddr optionally starts the observability server (/metrics,
	// /metrics.json, expvar, pprof) on a second address.
	DebugAddr string
	// CacheBytes bounds the frozen-snapshot LRU in bytes: a cached circuit
	// charges 64 bytes per DD node, its frozen snapshot and its sampler's
	// walk table.
	CacheBytes int64
	// QueueDepth bounds the strong-simulation admission queue; a full
	// queue answers HTTP 429 with Retry-After.
	QueueDepth int
	// SimWorkers sizes the strong-simulation worker pool (0 = GOMAXPROCS).
	SimWorkers int
	// MaxSampleWorkers caps the per-request sampling worker count
	// (0 = GOMAXPROCS).
	MaxSampleWorkers int
	// MaxShots caps per-request shots; DefaultShots fills in omitted ones.
	MaxShots     int
	DefaultShots int
	// RequestTimeout is the per-request deadline; blown deadlines answer
	// HTTP 504, the paper's "TO" through the network boundary.
	RequestTimeout time.Duration
	// SnapshotDir, when non-empty, persists frozen snapshots to a
	// crash-safe on-disk store and warm-loads it on start: a restarted
	// daemon serves previously simulated circuits from disk with zero
	// strong simulations. Corrupt files are quarantined and re-simulated.
	SnapshotDir string
	// FlightDir, when non-empty, receives flight-recorder ring dumps
	// (JSONL of recent request spans) when the daemon trips on a panic, an
	// injected fault, or an SLO fast-burn breach. Empty keeps dumps
	// HTTP-only (GET /debug/flight).
	FlightDir string
	// DisableRequestTraces turns off per-request span collection: no
	// X-Weaksim-Trace-Id response header, no debug=1 breakdown. The
	// disabled path allocates nothing per request.
	DisableRequestTraces bool
	// JobsDir, when non-empty, enables the durable batch-job store: job
	// specs and chunk checkpoints are WAL-persisted there, and a restarted
	// daemon resumes every non-terminal job losing at most one in-flight
	// chunk, with final counts bit-identical to an uninterrupted run.
	// Empty keeps jobs in memory only (lost on restart).
	JobsDir string
	// JobWorkers sizes the batch-chunk executor pool (0 = default).
	JobWorkers int
	// JobTenantWeights sets per-tenant fair-share weights for the
	// deficit-round-robin chunk scheduler (unlisted tenants weigh 1).
	JobTenantWeights map[string]int
	// JobMaxPerTenant caps active (non-terminal) jobs per tenant; at the
	// cap, submissions answer HTTP 429 (0 = default).
	JobMaxPerTenant int
}

// Daemon is a running sampling-as-a-service instance (see Serve).
type Daemon struct{ inner *serve.Server }

// Serve starts the weak-simulation sampling daemon: an HTTP/JSON service
// that accepts OpenQASM 2.0 (or named benchmark circuits) and returns
// measurement counts. Each distinct circuit is strongly simulated at most
// once — concurrent first requests are coalesced by a single-flight guard —
// and the frozen snapshot is kept in a byte-bounded LRU, so warm circuits
// are served entirely by lock-free O(n)-per-shot walks with zero DD work.
//
// Resource governance maps onto status codes: WithNodeBudget overruns
// answer 507 (the paper's MO), deadlines 504 (TO), a full admission queue
// 429 with Retry-After. Stop the daemon with Daemon.Shutdown for a graceful
// drain, or Daemon.Close to stop immediately.
func Serve(sc ServeConfig, opts ...Option) (*Daemon, error) {
	cfg := newConfig(opts)
	srv := serve.New(serve.Config{
		Addr:                 sc.Addr,
		DebugAddr:            sc.DebugAddr,
		Norm:                 cfg.norm,
		NodeBudget:           cfg.nodeBudget,
		CacheBytes:           sc.CacheBytes,
		QueueDepth:           sc.QueueDepth,
		SimWorkers:           sc.SimWorkers,
		MaxSampleWorkers:     sc.MaxSampleWorkers,
		MaxShots:             sc.MaxShots,
		DefaultShots:         sc.DefaultShots,
		RequestTimeout:       sc.RequestTimeout,
		SnapshotDir:          sc.SnapshotDir,
		FlightDir:            sc.FlightDir,
		DisableRequestTraces: sc.DisableRequestTraces,
		JobsDir:              sc.JobsDir,
		JobWorkers:           sc.JobWorkers,
		JobTenantWeights:     sc.JobTenantWeights,
		JobMaxPerTenant:      sc.JobMaxPerTenant,
		Metrics:              cfg.reg,
		Tracer:               cfg.tracer,
	})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &Daemon{inner: srv}, nil
}

// Addr returns the daemon's bound listen address.
func (d *Daemon) Addr() string { return d.inner.Addr() }

// Shutdown drains the daemon gracefully: stop accepting requests, let
// in-flight requests and queued simulations finish (until ctx expires),
// then release everything.
func (d *Daemon) Shutdown(ctx context.Context) error { return d.inner.Shutdown(ctx) }

// Close stops the daemon without draining.
func (d *Daemon) Close() error { return d.inner.Close() }

// ClusterConfig carries the router-side knobs of a replica cluster (see
// ServeCluster). Zero fields select the cluster package defaults.
type ClusterConfig struct {
	// Addr is the router's listen address ("" or ":0" = ephemeral port).
	Addr string
	// Backends is the static replica list: base URLs or host:port pairs.
	Backends []string
	// BackendsFile, when non-empty, is a watched membership file (one
	// replica URL per line, #-comments ignored) that is polled and applied
	// live — the ring rebuilds and only ~1/N of circuit placements move.
	BackendsFile string
	// ReplicaCount is how many warm snapshot copies beyond the primary each
	// circuit keeps (also the failover depth). 0 selects the default, -1
	// disables replication.
	ReplicaCount int
	// ProbeInterval is the /readyz health-probe cadence.
	ProbeInterval time.Duration
	// RequestTimeout bounds one forwarded exchange.
	RequestTimeout time.Duration
}

// ClusterRouter is a running cluster front door (see ServeCluster).
type ClusterRouter struct{ inner *cluster.Router }

// ServeCluster starts a cluster router over a fleet of sampling daemons
// started with Serve (or weaksimd): every circuit is consistent-hashed by
// its canonical key onto a primary replica (plus ReplicaCount warm copies),
// dead replicas are probe-ejected and failed over, and frozen snapshots are
// shipped between replicas so each circuit is strongly simulated at most
// once fleet-wide. Normalization and metrics ride in as regular Options and
// must match the replicas — the routing function is the replicas' cache-key
// function.
func ServeCluster(cc ClusterConfig, opts ...Option) (*ClusterRouter, error) {
	cfg := newConfig(opts)
	router, err := cluster.NewRouter(cluster.Config{
		Addr:           cc.Addr,
		Backends:       cc.Backends,
		BackendsFile:   cc.BackendsFile,
		ReplicaCount:   cc.ReplicaCount,
		ProbeInterval:  cc.ProbeInterval,
		RequestTimeout: cc.RequestTimeout,
		Norm:           cfg.norm,
		Metrics:        cfg.reg,
	})
	if err != nil {
		return nil, err
	}
	if err := router.Start(); err != nil {
		return nil, err
	}
	return &ClusterRouter{inner: router}, nil
}

// Addr returns the router's bound listen address.
func (c *ClusterRouter) Addr() string { return c.inner.Addr() }

// Shutdown drains the router: stop accepting requests, then wait for
// in-flight snapshot replication (until ctx expires).
func (c *ClusterRouter) Shutdown(ctx context.Context) error { return c.inner.Shutdown(ctx) }

// Close stops the router with a short drain bound.
func (c *ClusterRouter) Close() error { return c.inner.Close() }

// TopOutcomes returns the k most probable measurement outcomes exactly, in
// descending order, via best-first search over the decision diagram — no
// 2^n enumeration, so it works in the regime where the dense distribution
// cannot be stored.
func (s *State) TopOutcomes(k int) ([]Outcome, error) {
	if s.dense != nil {
		return nil, errVectorBacked
	}
	raw, err := core.TopOutcomes(s.mgr, s.edge, k)
	if err != nil {
		return nil, err
	}
	out := make([]Outcome, len(raw))
	for i, o := range raw {
		out[i] = Outcome{Bits: core.FormatBits(o.Index, s.Qubits()), Probability: o.Probability}
	}
	return out, nil
}
