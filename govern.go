package weaksim

// Resource-governed simulation: context cancellation, node budgets, and the
// vector→DD→approximation degradation planner.
//
// The paper's Table I is a story about resource exhaustion — vector-based
// sampling goes "MO" exactly where DD-based sampling survives. This file
// makes both failure modes first-class and recoverable: the dense backend
// is bounded by WithVectorBudget (statevec.ErrMemoryOut), the DD backend by
// WithNodeBudget (dd.ErrNodeBudget), every long-running stage accepts a
// context, and SimulateAuto walks the degradation ladder
//
//	dense vector  →  decision diagram  →  fidelity-bounded approximation
//
// recording each step it takes in a RunReport. The approximation tier is
// the lever of Hillmich et al.'s follow-up "As Accurate as Needed, as
// Efficient as Possible" (arXiv:2012.05615): prune low-probability branches
// while the cumulative fidelity stays above a caller-supplied floor.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/obs"
	"weaksim/internal/sim"
	"weaksim/internal/statevec"
)

// ErrNodeBudget reports that a decision diagram outgrew the node budget set
// with WithNodeBudget — the DD-side analogue of ErrMemoryOut. Detect it
// with errors.Is; it survives all facade wrapping.
var ErrNodeBudget = dd.ErrNodeBudget

// ErrInvalidOp reports a malformed operation (out-of-range target or
// control, non-bijective permutation). Both backends return it — wrapped —
// instead of panicking.
var ErrInvalidOp = statevec.ErrInvalidOp

// IsMemoryOut reports whether err is a resource-exhaustion failure: either
// the dense backend's ErrMemoryOut or the DD backend's ErrNodeBudget — the
// paper's "MO" class. cmd/weaksim maps it to exit code 3 and the weaksimd
// daemon to HTTP 507 Insufficient Storage.
func IsMemoryOut(err error) bool {
	return errors.Is(err, ErrMemoryOut) || errors.Is(err, ErrNodeBudget)
}

// IsTimeout reports whether err is a deadline or cancellation failure — the
// paper's "TO" class. cmd/weaksim maps it to exit code 4 and the weaksimd
// daemon to HTTP 504 Gateway Timeout.
func IsTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// RunReport describes what a governed simulation actually did: which
// backend produced the state, which fallbacks were taken on the way, and
// what the run cost.
type RunReport struct {
	// Backend is the backend that produced the state: "vector", "dd", or
	// "none" when every tier failed.
	Backend string
	// Fallbacks lists the degradation steps taken, in order, in human-
	// readable form (e.g. the vector→DD switch, each approximation).
	Fallbacks []string
	// Approximations counts fidelity-bounded prunes applied under node-
	// budget pressure.
	Approximations int
	// Fidelity is the cumulative |⟨approx|exact⟩|² of the returned state;
	// 1 for an exact run.
	Fidelity float64
	// Elapsed is the wall-clock time of the whole attempt, including
	// failed tiers.
	Elapsed time.Duration
	// PeakNodes is the decision-diagram live-node high-water mark (0 for
	// pure vector runs).
	PeakNodes int
	// SnapshotNodes is the node count of the immutable state snapshot the
	// sampling stage ran on (RunAuto only; 0 when no sampling happened or
	// the state was vector-backed). Once the state is frozen, sampling can
	// no longer hit the node budget: the MO/TO failure modes of the paper's
	// Table I are confined to the strong-simulation stage.
	SnapshotNodes int
	// NodeBudget echoes the configured DD node budget (0 = unlimited).
	NodeBudget int
	// Telemetry is the machine-readable summary of the run: per-phase
	// durations (when WithMetrics attached a registry), peak nodes, and
	// cache hit rates. Non-nil whenever the DD backend was entered; nil
	// only for pure vector runs without a registry and for early usage
	// failures.
	Telemetry *Telemetry
}

func (r *RunReport) note(format string, args ...any) {
	r.Fallbacks = append(r.Fallbacks, fmt.Sprintf(format, args...))
}

// noteEvent records a degradation-ladder step both in the human-readable
// fallback list and, when tracing is enabled, as a structured govern-phase
// trace event.
func (r *RunReport) noteEvent(tr *obs.RequestTrace, name string, attrs map[string]any, format string, args ...any) {
	r.note(format, args...)
	if tr != nil {
		if attrs == nil {
			attrs = map[string]any{}
		}
		attrs["detail"] = r.Fallbacks[len(r.Fallbacks)-1]
		tr.Event(obs.PhaseGovern, name, attrs)
	}
}

// String renders the report in one line per fact, for CLI -stats output.
func (r *RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "backend=%s fidelity=%.6g elapsed=%v", r.Backend, r.Fidelity, r.Elapsed.Round(time.Microsecond))
	if r.PeakNodes > 0 {
		fmt.Fprintf(&b, " peak-nodes=%d", r.PeakNodes)
	}
	if r.NodeBudget > 0 {
		fmt.Fprintf(&b, " node-budget=%d", r.NodeBudget)
	}
	if r.SnapshotNodes > 0 {
		fmt.Fprintf(&b, " snapshot-nodes=%d", r.SnapshotNodes)
	}
	for _, f := range r.Fallbacks {
		fmt.Fprintf(&b, "\nfallback: %s", f)
	}
	return b.String()
}

// guard converts a panic escaping a facade entry point into a returned
// error, so callers never see a panic for malformed input. Typed sentinel
// errors (ErrMemoryOut, ErrNodeBudget, ErrInvalidOp, context errors) are
// returned as ordinary wrapped errors and are unaffected.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("weaksim: internal panic: %v", r)
	}
}

// newGovernedDD builds a DD simulator honoring the config's normalization
// scheme, node budget, and observability attachments.
func newGovernedDD(c *Circuit, cfg config) (*sim.DDSimulator, error) {
	mgrOpts := []dd.Option{dd.WithNormalization(cfg.norm)}
	if cfg.nodeBudget > 0 {
		mgrOpts = append(mgrOpts, dd.WithNodeBudget(cfg.nodeBudget))
	}
	return sim.NewDD(c,
		sim.WithManagerOptions(mgrOpts...),
		sim.WithObservability(cfg.reg, cfg.tracer))
}

// SimulateContext is Simulate with cooperative cancellation and resource
// governance: the context is checked every sim.CtxCheckOps operations, and
// a WithNodeBudget bound surfaces as ErrNodeBudget instead of unbounded
// growth.
func SimulateContext(ctx context.Context, c *Circuit, opts ...Option) (st *State, err error) {
	defer guard(&err)
	cfg := newConfig(opts)
	sp := obs.StartSpan(cfg.reg, cfg.tracer, obs.PhaseBuild)
	s, err := newGovernedDD(c, cfg)
	sp.End(nil)
	if err != nil {
		return nil, err
	}
	sp = obs.StartSpan(cfg.reg, cfg.tracer, obs.PhaseApply)
	edge, err := s.RunContext(ctx)
	sp.End(nil)
	if err != nil {
		return nil, fmt.Errorf("weaksim: %w", err)
	}
	return &State{mgr: s.Manager(), edge: edge, cfg: cfg}, nil
}

// SimulateAuto strongly simulates the circuit under the full degradation
// policy:
//
//  1. The dense vector backend runs first when the circuit fits the vector
//     budget (WithVectorBudget, default 26 qubits). On ErrMemoryOut it
//     falls back to tier 2 — the paper's "MO" hand-off in reverse.
//  2. The decision-diagram backend runs under the node budget
//     (WithNodeBudget, 0 = unlimited).
//  3. On dd.ErrNodeBudget, if WithMinFidelity set a floor > 0, the
//     in-flight state is pruned (core.Approximate) with escalating
//     thresholds until it fits the budget again, and the run resumes —
//     as long as the cumulative fidelity stays at or above the floor.
//
// The returned RunReport records the backend used, every fallback taken,
// the cumulative fidelity, elapsed time, and the DD node high-water mark.
// The report is non-nil even when the error is non-nil, so harnesses can
// render "MO"/"TO" cells from a failed attempt.
func SimulateAuto(ctx context.Context, c *Circuit, opts ...Option) (st *State, report *RunReport, err error) {
	defer guard(&err)
	cfg := newConfig(opts)
	report = &RunReport{Backend: "none", Fidelity: 1, NodeBudget: cfg.nodeBudget}
	start := time.Now()
	defer func() { report.Elapsed = time.Since(start) }()

	// Tier 1: dense vector backend within the memory budget.
	vecBudget := cfg.vectorQubits
	if vecBudget <= 0 {
		vecBudget = statevec.DefaultMaxQubits
	}
	vs, verr := sim.NewVector(c, vecBudget)
	if verr == nil {
		sp := obs.StartSpan(cfg.reg, cfg.tracer, obs.PhaseApply)
		var dense *statevec.State
		dense, verr = vs.RunContext(ctx)
		sp.End(nil)
		if verr == nil {
			report.Backend = "vector"
			st := &State{dense: dense, cfg: cfg}
			report.Telemetry = st.Telemetry()
			return st, report, nil
		}
	}
	if !errors.Is(verr, ErrMemoryOut) {
		// Validation failures, invalid ops, and context errors are not
		// resource exhaustion — switching backends cannot cure them.
		return nil, report, fmt.Errorf("weaksim: %w", verr)
	}
	report.noteEvent(cfg.tracer, "vector-to-dd", map[string]any{"vector_budget_qubits": vecBudget},
		"vector backend: %v → falling back to DD", verr)

	// Tier 2 + 3: DD backend under the node budget, pruning under pressure.
	sp := obs.StartSpan(cfg.reg, cfg.tracer, obs.PhaseBuild)
	s, err := newGovernedDD(c, cfg)
	sp.End(nil)
	if err != nil {
		return nil, report, fmt.Errorf("weaksim: %w", err)
	}
	report.Backend = "dd"
	mgr := s.Manager()
	// The DD tier's telemetry digest is attached on every exit path — the
	// failed ones included, so MO/TO harness cells still carry peak nodes
	// and hit rates.
	defer func() {
		report.Telemetry = telemetryFromDD(mgr.TableStats(), mgr.PeakNodes(), mgr.LiveNodes(), cfg.reg)
	}()
	fidelity := 1.0
	const maxPrunes = 64 // hard stop against pathological no-progress loops
	stuckPos := -1       // op index of the last budget failure
	shrink := 2          // prune target divisor: budget/shrink live nodes
	for {
		sp := obs.StartSpan(cfg.reg, cfg.tracer, obs.PhaseApply)
		edge, rerr := s.RunContext(ctx)
		sp.End(nil)
		report.PeakNodes = mgr.PeakNodes()
		if rerr == nil {
			report.Fidelity = fidelity
			return &State{mgr: mgr, edge: edge, cfg: cfg}, report, nil
		}
		if !errors.Is(rerr, ErrNodeBudget) || cfg.minFidelity <= 0 || report.Approximations >= maxPrunes {
			report.Fidelity = fidelity
			return nil, report, fmt.Errorf("weaksim: %w", rerr)
		}
		// A repeated failure at the same op means the last prune left the
		// state small enough on its own but not small enough to survive the
		// operator product — prune harder (smaller target) this time instead
		// of looping without progress.
		if s.Pos() == stuckPos {
			shrink *= 2
		} else {
			stuckPos, shrink = s.Pos(), 2
		}
		f, perr := pruneUnderBudget(s, fidelity, cfg.minFidelity, shrink)
		if perr != nil {
			report.noteEvent(cfg.tracer, "approximation-failed", map[string]any{"op": s.Pos()},
				"approximation cannot recover: %v", perr)
			report.Fidelity = fidelity
			return nil, report, fmt.Errorf("weaksim: %w", rerr)
		}
		fidelity *= f
		report.Approximations++
		report.noteEvent(cfg.tracer, "approximate", map[string]any{
			"op":                  s.Pos(),
			"shrink":              shrink,
			"step_fidelity":       f,
			"cumulative_fidelity": fidelity,
			"live_nodes":          mgr.LiveNodes(),
		}, "dd node budget hit at op %d: pruned state to ≤budget/%d nodes, step fidelity %.6g (cumulative %.6g)",
			s.Pos(), shrink, f, fidelity)
	}
}

// pruneUnderBudget shrinks the simulator's in-flight state with
// core.Approximate, escalating the prune threshold until the live node
// count fits comfortably under the budget (budget/shrink, leaving headroom
// for the next operator product; the caller widens shrink when the same op
// keeps failing). It fails — leaving the last pruned state installed but
// coherent — when no threshold fits without dropping the cumulative
// fidelity (have × step) below minFidelity.
//
// The node budget is suspended while the pruned state is rebuilt: the
// rebuild transiently adds nodes before the old state becomes collectable.
func pruneUnderBudget(s *sim.DDSimulator, have, minFidelity float64, shrink int) (float64, error) {
	mgr := s.Manager()
	budget := mgr.NodeBudget()
	mgr.SetNodeBudget(0)
	defer mgr.SetNodeBudget(budget)

	if shrink < 2 {
		shrink = 2
	}
	target := budget / shrink
	if target < 1 {
		target = 1
	}
	cum := 1.0
	for threshold := 1e-10; threshold < 0.5; threshold *= 100 {
		edge, f, err := core.Approximate(mgr, s.State(), threshold)
		if err != nil {
			return 0, err
		}
		if have*cum*f < minFidelity {
			return 0, fmt.Errorf("pruning to fit budget %d would drop fidelity below the floor %g",
				budget, minFidelity)
		}
		cum *= f
		s.SetState(edge)
		s.Collect()
		if mgr.LiveNodes() <= target {
			return cum, nil
		}
	}
	return 0, fmt.Errorf("no pruning threshold fits the state under budget/%d = %d nodes within fidelity floor %g",
		shrink, target, minFidelity)
}

// RunAuto is the one-call governed weak simulation: SimulateAuto followed
// by shots context-aware measurement samples. On sampling cancellation the
// partial counts drawn so far are returned alongside the error; the report
// is non-nil in every case.
//
// Sampling runs on an immutable snapshot of the final state (see
// Manager.Freeze): once SimulateAuto returns, no further degradation step
// can occur — the snapshot lives outside the node budget, so drawing any
// number of shots can neither trigger ErrNodeBudget nor force another
// approximation. The degradation ladder therefore ends at the freeze, and
// the report's SnapshotNodes records what the sampler actually walked. With
// WithWorkers the shot batch is sharded across concurrent walkers on that
// one snapshot.
func RunAuto(ctx context.Context, c *Circuit, shots int, opts ...Option) (counts map[string]int, report *RunReport, err error) {
	defer guard(&err)
	if shots < 1 {
		return nil, &RunReport{Backend: "none", Fidelity: 1}, errors.New("weaksim: shots must be positive")
	}
	state, report, err := SimulateAuto(ctx, c, opts...)
	if err != nil {
		return nil, report, err
	}
	sampler, err := state.Sampler()
	if err != nil {
		return nil, report, err
	}
	report.SnapshotNodes = sampler.SnapshotNodes()
	counts, err = sampler.CountsContext(ctx, shots)
	return counts, report, err
}
