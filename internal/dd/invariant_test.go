package dd

import (
	"errors"
	"testing"

	"weaksim/internal/cnum"
	"weaksim/internal/obs"
)

// mustInvariant asserts err is an *InvariantError naming the given check.
func mustInvariant(t *testing.T, err error, check string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected %s violation, got nil", check)
	}
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("%v does not wrap ErrInvariant", err)
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("%v (%T) is not *InvariantError", err, err)
	}
	if ie.Check != check {
		t.Fatalf("violated check %q (%v), want %q", ie.Check, err, check)
	}
}

func TestCheckInvariantsPassesOnWellFormedStates(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		m, state := snapTestState(t, norm)
		if err := m.CheckInvariants(state); err != nil {
			t.Errorf("norm %v: running-example state: %v", norm, err)
		}
		if err := m.CheckInvariants(m.ZeroState()); err != nil {
			t.Errorf("norm %v: zero state: %v", norm, err)
		}
	}
}

func TestCheckInvariantsDetectsViolations(t *testing.T) {
	t.Run("zero root", func(t *testing.T) {
		m := New(3)
		mustInvariant(t, m.CheckInvariants(VEdge{}), CheckZeroEdge)
	})
	t.Run("root level", func(t *testing.T) {
		m, state := snapTestState(t, NormL2Phase)
		// A sub-edge's node sits below the register's top level.
		sub := state.N.E[0]
		if sub.N == nil {
			t.Skip("running example lost its 0-subtree")
		}
		mustInvariant(t, m.CheckInvariants(sub), CheckLevels)
	})
	t.Run("norm rule", func(t *testing.T) {
		m, state := snapTestState(t, NormLeft)
		// Rotate the root node's leading weight off 1 in place. |w|² is
		// preserved, so only the normalization rule is broken.
		b := 0
		if state.N.E[0].IsZero() {
			b = 1
		}
		saved := state.N.E[b].W
		state.N.E[b].W = cnum.I
		defer func() { state.N.E[b].W = saved }()
		mustInvariant(t, m.CheckInvariants(state), CheckNormRule)
	})
	t.Run("canonicity", func(t *testing.T) {
		m, state := snapTestState(t, NormL2Phase)
		// A structurally valid node fabricated outside the unique table.
		orphanKid := state.N.E[0]
		fake := &VNode{V: m.nqubits - 1, E: [2]VEdge{orphanKid, state.N.E[1]}}
		mustInvariant(t, m.CheckInvariants(VEdge{W: state.W, N: fake}), CheckCanonicity)
	})
	t.Run("mass", func(t *testing.T) {
		m, state := snapTestState(t, NormL2Phase)
		inflated := VEdge{W: state.W.Mul(cnum.New(2, 0)), N: state.N}
		mustInvariant(t, m.CheckInvariants(inflated), CheckMass)
	})
}

// mustFreeze freezes the running-example state under the given norm.
func mustFreeze(t *testing.T, norm Norm) *Snapshot {
	t.Helper()
	m, state := snapTestState(t, norm)
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSnapshotVerifyPassesOnFreshFreeze(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2Phase} {
		snap := mustFreeze(t, norm)
		if err := snap.Verify(); err != nil {
			t.Errorf("norm %v: %v", norm, err)
		}
	}
}

func TestSnapshotVerifyDetectsCorruption(t *testing.T) {
	t.Run("root out of range", func(t *testing.T) {
		s := mustFreeze(t, NormL2Phase)
		s.root = int32(len(s.nodes))
		mustInvariant(t, s.Verify(), CheckPostOrder)
	})
	t.Run("qubit count", func(t *testing.T) {
		s := mustFreeze(t, NormL2Phase)
		s.nqubits = 0
		mustInvariant(t, s.Verify(), CheckLevels)
	})
	t.Run("root level", func(t *testing.T) {
		s := mustFreeze(t, NormL2Phase)
		s.nqubits++
		mustInvariant(t, s.Verify(), CheckLevels)
	})
	t.Run("post-order", func(t *testing.T) {
		s := mustFreeze(t, NormL2Phase)
		// A self-referential child closes a cycle post-order forbids.
		s.nodes[s.root].Kid[0] = s.root
		mustInvariant(t, s.Verify(), CheckPostOrder)
	})
	t.Run("zero edge with weight", func(t *testing.T) {
		s := mustFreeze(t, NormL2Phase)
		found := false
		for i := range s.nodes {
			for b := 0; b < 2; b++ {
				if s.nodes[i].Kid[b] == SnapZero {
					s.nodes[i].W[b] = cnum.One
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Fatal("running example has no zero edge")
		}
		mustInvariant(t, s.Verify(), CheckZeroEdge)
	})
	t.Run("downstream mass", func(t *testing.T) {
		// NormLeft fixes only the leading weight, so a scaled 1-edge passes
		// the norm rule: the computed downstream mass must catch it.
		s := mustFreeze(t, NormLeft)
		nd := &s.nodes[s.root]
		if nd.Kid[1] == SnapZero {
			t.Fatal("running example's root has no 1-edge")
		}
		nd.W[1] = nd.W[1].Mul(cnum.New(2, 0))
		mustInvariant(t, s.Verify(), CheckMass)
	})
	t.Run("norm rule", func(t *testing.T) {
		s := mustFreeze(t, NormL2Phase)
		// Negating the leading weight preserves every probability but breaks
		// the phase-pulling convention: only the norm check may fire.
		nd := &s.nodes[s.root]
		b := 0
		if nd.Kid[b] == SnapZero {
			b = 1
		}
		nd.W[b] = nd.W[b].Neg()
		mustInvariant(t, s.Verify(), CheckNormRule)
	})
	t.Run("total mass", func(t *testing.T) {
		s := mustFreeze(t, NormL2Phase)
		s.rootW = s.rootW.Mul(cnum.New(2, 0))
		mustInvariant(t, s.Verify(), CheckMass)
	})
}

// TestInvariantObsCounters: checks and failures are mirrored into the
// registry, with a per-check failure series.
func TestInvariantObsCounters(t *testing.T) {
	m, state := snapTestState(t, NormL2Phase)
	reg := obs.NewRegistry()
	m.SetObserver(reg, nil)
	if err := m.CheckInvariants(state); err != nil {
		t.Fatal(err)
	}
	inflated := VEdge{W: state.W.Mul(cnum.New(2, 0)), N: state.N}
	mustInvariant(t, m.CheckInvariants(inflated), CheckMass)
	if got := reg.Counter("dd_invariant_checks_total").Value(); got < 2 {
		t.Errorf("checks counter %d, want >= 2", got)
	}
	if got := reg.Counter("dd_invariant_failures_total").Value(); got != 1 {
		t.Errorf("failures counter %d, want 1", got)
	}
	if got := reg.Counter("dd_invariant_mass_failures_total").Value(); got != 1 {
		t.Errorf("per-check failure counter %d, want 1", got)
	}
}
