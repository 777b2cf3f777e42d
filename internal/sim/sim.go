// Package sim drives strong simulation: it advances a circuit to its final
// quantum state on one of two backends, the decision-diagram engine
// (internal/dd) or the dense state-vector engine (internal/statevec).
// Strong simulation is the precomputation stage of the paper's weak
// simulation flow (Fig. 2): the sampling algorithms in internal/core
// operate on the states produced here.
package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"weaksim/internal/circuit"
	"weaksim/internal/dd"
	"weaksim/internal/gate"
	"weaksim/internal/obs"
	"weaksim/internal/statevec"
)

// CtxCheckOps is the amortization interval for context cancellation checks
// in the Run loop: the context is consulted once every CtxCheckOps
// operations, so the no-context hot path stays flat while a cancelled or
// expired context stops the run within CtxCheckOps operations.
const CtxCheckOps = 32

// interrupted wraps a context error with position information.
func interrupted(ctx context.Context, name string, pos int) error {
	return fmt.Errorf("sim: circuit %q interrupted at op %d: %w", name, pos, context.Cause(ctx))
}

// DDSimulator advances a circuit on the decision-diagram backend.
type DDSimulator struct {
	mgr      *dd.Manager
	circ     *circuit.Circuit
	state    dd.VEdge
	pos      int
	opCache  map[string]dd.MEdge
	roots    []dd.MEdge
	applied  int
	gcSweeps int
	obs      *simObs // nil = telemetry disabled
}

// simObs caches the metric handles the simulator touches per operation.
// When nil (the default) the per-op telemetry cost is one pointer nil-check
// and zero clock reads; when attached, each applied operation costs two
// time.Now calls, a histogram observation, and a handful of atomic stores.
type simObs struct {
	reg *obs.Registry
	tr  *obs.RequestTrace

	opsApplied *obs.Counter
	gcSweeps   *obs.Counter
	opLatency  *obs.Histogram
}

func newSimObs(reg *obs.Registry, tr *obs.RequestTrace) *simObs {
	if reg == nil && tr == nil {
		return nil
	}
	return &simObs{
		reg:        reg,
		tr:         tr,
		opsApplied: reg.Counter("sim_ops_applied_total"),
		gcSweeps:   reg.Counter("sim_gc_sweeps_total"),
		opLatency:  reg.Histogram("sim_op_apply_ns", obs.OpLatencyBounds),
	}
}

// DDOption configures a DDSimulator.
type DDOption func(*ddConfig)

type ddConfig struct {
	mgrOpts []dd.Option
	reg     *obs.Registry
	tracer  *obs.RequestTrace
}

// WithObservability attaches a metrics registry and/or a trace to the
// simulator and its dd.Manager: throttled op events (see
// obs.RequestTrace.OpDue), GC and budget-pressure events and invariant-check
// spans land in tr. Either argument may be nil. With both
// nil the simulator's telemetry path is a single disabled nil-check per
// operation; the hot DD lookup paths keep their cheap local counters either
// way and are mirrored into the registry after every applied operation.
func WithObservability(reg *obs.Registry, tr *obs.RequestTrace) DDOption {
	return func(c *ddConfig) {
		c.reg = reg
		c.tracer = tr
	}
}

// WithManagerOptions forwards options to the underlying dd.Manager (e.g.
// normalization scheme, tolerance, cache sizes).
func WithManagerOptions(opts ...dd.Option) DDOption {
	return func(c *ddConfig) { c.mgrOpts = append(c.mgrOpts, opts...) }
}

// NewDD prepares a DD simulation of the circuit starting from |0...0⟩.
func NewDD(c *circuit.Circuit, opts ...DDOption) (*DDSimulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var cfg ddConfig
	for _, o := range opts {
		o(&cfg)
	}
	mgr := dd.New(c.NQubits, cfg.mgrOpts...)
	mgr.SetObserver(cfg.reg, cfg.tracer)
	// Even the |0...0⟩ chain costs one node per qubit, so an absurdly small
	// node budget can already fail here; surface that as ErrNodeBudget
	// rather than letting the budget abort escape as a panic.
	var zero dd.VEdge
	if err := mgr.Guarded(func() error {
		zero = mgr.ZeroState()
		return nil
	}); err != nil {
		return nil, fmt.Errorf("sim: circuit %q initial state: %w", c.Name, err)
	}
	return &DDSimulator{
		mgr:     mgr,
		circ:    c,
		state:   zero,
		opCache: make(map[string]dd.MEdge),
		obs:     newSimObs(cfg.reg, cfg.tracer),
	}, nil
}

// Manager returns the decision-diagram manager owning the state.
func (s *DDSimulator) Manager() *dd.Manager { return s.mgr }

// State returns the current state DD.
func (s *DDSimulator) State() dd.VEdge { return s.state }

// SetState replaces the current state DD. Degradation planners use it to
// install a pruned (core.Approximate) state after a dd.ErrNodeBudget failure
// and resume the run from the not-yet-applied operation.
func (s *DDSimulator) SetState(e dd.VEdge) { s.state = e }

// Pos returns the index of the next operation to apply.
func (s *DDSimulator) Pos() int { return s.pos }

// Collect forces a garbage collection keeping the current state and all
// cached operator DDs alive. Exposed for degradation planners that shrink
// the state mid-run and want the freed nodes accounted against the budget
// immediately.
func (s *DDSimulator) Collect() { s.collect() }

// AppliedOps returns the number of operations applied so far.
func (s *DDSimulator) AppliedOps() int { return s.applied }

// GCSweeps returns how many garbage collections ran during simulation.
func (s *DDSimulator) GCSweeps() int { return s.gcSweeps }

// Run applies all remaining operations and returns the final state DD.
func (s *DDSimulator) Run() (dd.VEdge, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// every CtxCheckOps operations, so a cancelled or expired context stops the
// simulation promptly without adding per-gate overhead. A context error
// leaves the simulator in a coherent state — the failing position is not
// consumed, so the run can be resumed with a fresh context.
func (s *DDSimulator) RunContext(ctx context.Context) (dd.VEdge, error) {
	for i := 0; s.pos < len(s.circ.Ops); i++ {
		if i%CtxCheckOps == 0 && ctx.Err() != nil {
			return dd.VEdge{}, interrupted(ctx, s.circ.Name, s.pos)
		}
		if err := s.Step(); err != nil {
			return dd.VEdge{}, err
		}
	}
	return s.state, nil
}

// noteApplied records per-op telemetry for the operation Step just applied
// in dur (the governance planner drives Step directly, so degraded
// single-step runs are just as observable), and it emits an op event
// whenever the applied count reaches a multiple of the trace's interval.
// With no observer installed the cost is one nil-check.
func (s *DDSimulator) noteApplied(dur time.Duration) {
	o := s.obs
	if o == nil {
		return
	}
	o.opsApplied.Inc()
	o.opLatency.ObserveDuration(dur)
	s.mgr.PublishMetrics()
	if o.tr.OpDue(s.applied) {
		o.tr.Event(obs.PhaseApply, "op", map[string]any{
			"applied":    s.applied,
			"pos":        s.pos,
			"dur_ns":     dur.Nanoseconds(),
			"live_nodes": s.mgr.LiveNodes(),
		})
	}
}

// guardedApply runs apply under the Manager's node-budget guard, escalating
// through two relief steps before surfacing dd.ErrNodeBudget:
//
//  1. collect garbage, keeping the state and the operator cache alive;
//  2. drop the operator cache entirely — it is only a cache, recomputable —
//     and collect again keeping nothing but the state.
//
// Only a third overrun, with every reclaimable node gone, is genuine live
// growth and reported as MO. The simulator's state edge is untouched by a
// failed attempt, so callers may prune the state (core.Approximate) and
// resume.
func (s *DDSimulator) guardedApply(apply func() error) error {
	err := s.mgr.Guarded(apply)
	if errors.Is(err, dd.ErrNodeBudget) {
		s.collect()
		err = s.mgr.Guarded(apply)
	}
	if errors.Is(err, dd.ErrNodeBudget) {
		s.dropOpCache()
		err = s.mgr.Guarded(apply)
	}
	return err
}

// dropOpCache discards every cached operator DD and sweeps, keeping only
// the state alive. Subsequent operations rebuild their DDs on demand —
// slower, but it trades speed for fitting the node budget.
func (s *DDSimulator) dropOpCache() {
	clear(s.opCache)
	s.roots = s.roots[:0]
	s.mgr.GC([]dd.VEdge{s.state}, nil)
	s.gcSweeps++
	if s.obs != nil {
		s.obs.gcSweeps.Inc()
	}
}

// Step applies the next operation. It returns an error when the circuit is
// exhausted, an operation cannot be translated, or the node budget is
// exhausted. On failure the position is NOT advanced past the failing
// operation, so retry/resume semantics stay coherent: a caller that clears
// the failure condition (e.g. by pruning the state under budget pressure)
// can call Step again and re-attempt the same operation.
func (s *DDSimulator) Step() error {
	if s.pos >= len(s.circ.Ops) {
		return fmt.Errorf("sim: circuit %q exhausted", s.circ.Name)
	}
	op := s.circ.Ops[s.pos]
	if op.Kind == circuit.BarrierOp {
		s.pos++
		return nil
	}
	var start time.Time
	if s.obs != nil {
		start = time.Now()
	}
	err := s.guardedApply(func() error {
		opDD, err := s.operatorDD(op)
		if err != nil {
			return err
		}
		s.state = s.mgr.Mul(opDD, s.state)
		return nil
	})
	if err != nil {
		return fmt.Errorf("sim: circuit %q op %d: %w", s.circ.Name, s.pos, err)
	}
	s.pos++
	s.applied++
	var dur time.Duration
	if s.obs != nil {
		dur = time.Since(start)
	}
	s.noteApplied(dur)
	if s.mgr.ShouldGC() {
		s.collect()
	}
	return nil
}

// collect runs a mark-and-sweep GC keeping the state and all cached
// operator DDs alive.
func (s *DDSimulator) collect() {
	s.roots = s.roots[:0]
	for _, e := range s.opCache {
		s.roots = append(s.roots, e)
	}
	s.mgr.GC([]dd.VEdge{s.state}, s.roots)
	s.gcSweeps++
	if s.obs != nil {
		s.obs.gcSweeps.Inc()
	}
}

// operatorDD translates an operation into a matrix DD, memoizing repeated
// operators (Grover applies the same oracle and diffusion tens of thousands
// of times).
func (s *DDSimulator) operatorDD(op circuit.Op) (dd.MEdge, error) {
	key := opKey(op)
	if e, ok := s.opCache[key]; ok {
		return e, nil
	}
	var e dd.MEdge
	switch op.Kind {
	case circuit.GateOp:
		e = s.mgr.GateDD(dd.GateMatrix(op.Gate.Matrix()), op.Target, ddControls(op.Controls)...)
	case circuit.PermutationOp:
		var err error
		e, err = s.mgr.PermutationDD(op.Perm, op.PermWidth, ddControls(op.Controls)...)
		if err != nil {
			return dd.MEdge{}, err
		}
	default:
		return dd.MEdge{}, fmt.Errorf("sim: cannot translate op kind %d", int(op.Kind))
	}
	s.opCache[key] = e
	return e, nil
}

func ddControls(cs []gate.Control) []dd.Control {
	if len(cs) == 0 {
		return nil
	}
	out := make([]dd.Control, len(cs))
	for i, c := range cs {
		out[i] = dd.Control{Qubit: c.Qubit, Negative: c.Negative}
	}
	return out
}

// opKey builds a memoization key for an operation. Permutations are keyed
// by label and controls; circuit.Validate guarantees that a label names a
// single map.
func opKey(op circuit.Op) string {
	var b strings.Builder
	switch op.Kind {
	case circuit.GateOp:
		fmt.Fprintf(&b, "g:%d:%v:%d", int(op.Gate.Kind), op.Gate.Params, op.Target)
	case circuit.PermutationOp:
		fmt.Fprintf(&b, "p:%s:%d", op.Label, op.PermWidth)
		if op.Label == "" {
			// Unlabeled permutation: fall back to hashing the full map.
			fmt.Fprintf(&b, ":%v", op.Perm)
		}
	}
	for _, c := range op.Controls {
		fmt.Fprintf(&b, ":c%d,%t", c.Qubit, c.Negative)
	}
	return b.String()
}

// VectorSimulator advances a circuit on the dense state-vector backend.
type VectorSimulator struct {
	st   *statevec.State
	circ *circuit.Circuit
	pos  int
}

// NewVector prepares a dense simulation of the circuit starting from
// |0...0⟩. maxQubits bounds the allocation (0 = statevec.DefaultMaxQubits);
// exceeding it returns statevec.ErrMemoryOut, the paper's "MO" condition.
func NewVector(c *circuit.Circuit, maxQubits int) (*VectorSimulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	st, err := statevec.New(c.NQubits, maxQubits)
	if err != nil {
		return nil, err
	}
	return &VectorSimulator{st: st, circ: c}, nil
}

// State returns the dense state.
func (s *VectorSimulator) State() *statevec.State { return s.st }

// Run applies all remaining operations and returns the final dense state.
func (s *VectorSimulator) Run() (*statevec.State, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation, checked before every
// operation. Invalid operations (out-of-range targets or controls,
// malformed permutations) surface as wrapped statevec.ErrInvalidOp errors
// rather than panics; on any failure the position is not advanced past the
// failing operation.
func (s *VectorSimulator) RunContext(ctx context.Context) (*statevec.State, error) {
	for s.pos < len(s.circ.Ops) {
		// Dense gates are O(2^n) apiece, so an every-op check is free
		// relative to the work between checks.
		if ctx.Err() != nil {
			return nil, interrupted(ctx, s.circ.Name, s.pos)
		}
		op := s.circ.Ops[s.pos]
		var err error
		switch op.Kind {
		case circuit.BarrierOp:
		case circuit.GateOp:
			err = s.st.ApplyGate(op.Gate.Matrix(), op.Target, op.Controls...)
		case circuit.PermutationOp:
			err = s.st.ApplyPermutation(op.Perm, op.PermWidth, op.Controls...)
		default:
			err = fmt.Errorf("sim: cannot apply op kind %d", int(op.Kind))
		}
		if err != nil {
			return nil, fmt.Errorf("sim: circuit %q op %d: %w", s.circ.Name, s.pos, err)
		}
		s.pos++
	}
	return s.st, nil
}
