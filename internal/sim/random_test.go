package sim

import (
	"testing"
	"testing/quick"

	"weaksim/internal/circuit"
	"weaksim/internal/dd"
	"weaksim/internal/gate"
	"weaksim/internal/rng"
)

// randomCircuit builds a random circuit from a seed: a mix of single-qubit
// gates, controlled gates (positive and negative controls), Toffolis, and
// small permutations — every operation kind the simulators support.
func randomCircuit(seed uint64, nqubits, nops int) *circuit.Circuit {
	r := rng.New(seed)
	c := circuit.New(nqubits, "random")
	singles := []gate.Gate{
		gate.HGate, gate.XGate, gate.YGate, gate.ZGate, gate.SGate,
		gate.TGate, gate.SXGate, gate.SYGate,
		gate.RXGate(0.37), gate.RYGate(-1.1), gate.RZGate(2.2),
		gate.PhaseGate(0.81), gate.UGate(0.5, 1.3, -0.7),
	}
	for i := 0; i < nops; i++ {
		switch r.IntN(5) {
		case 0, 1: // single-qubit gate
			c.Apply(singles[r.IntN(len(singles))], r.IntN(nqubits))
		case 2: // controlled gate
			t := r.IntN(nqubits)
			ctl := r.IntN(nqubits)
			if ctl == t {
				ctl = (ctl + 1) % nqubits
			}
			control := gate.Pos(ctl)
			if r.IntN(2) == 0 {
				control = gate.Neg(ctl)
			}
			c.Apply(singles[r.IntN(len(singles))], t, control)
		case 3: // Toffoli-style
			if nqubits < 3 {
				c.H(r.IntN(nqubits))
				continue
			}
			t := r.IntN(nqubits)
			c1 := (t + 1) % nqubits
			c2 := (t + 2) % nqubits
			c.Apply(gate.XGate, t, gate.Pos(c1), gate.Pos(c2))
		case 4: // 2-qubit permutation on the low bits, possibly controlled
			perm := []uint64{0, 1, 2, 3}
			i, j := r.IntN(4), r.IntN(4)
			perm[i], perm[j] = perm[j], perm[i]
			var ctls []gate.Control
			if nqubits > 2 && r.IntN(2) == 0 {
				ctls = append(ctls, gate.Pos(2+r.IntN(nqubits-2)))
			}
			c.Permutation(perm, 2, "", ctls...)
		}
	}
	return c
}

// TestRandomCircuitsCrossValidate is the repository's strongest invariant:
// for arbitrary circuits, the decision-diagram backend and the dense
// backend must produce identical states under every normalization scheme.
func TestRandomCircuitsCrossValidate(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed uint64, nq, nops uint8) bool {
		n := 2 + int(nq%5) // 2..6 qubits
		ops := 5 + int(nops%40)
		c := randomCircuit(seed, n, ops)
		for _, norm := range []dd.Norm{dd.NormLeft, dd.NormL2Phase} {
			ddSim, err := NewDD(c, WithManagerOptions(dd.WithNormalization(norm)))
			if err != nil {
				return false
			}
			state, err := ddSim.Run()
			if err != nil {
				return false
			}
			vecSim, err := NewVector(c, 0)
			if err != nil {
				return false
			}
			dense, err := vecSim.Run()
			if err != nil {
				return false
			}
			got, err := ddSim.Manager().ToVector(state)
			if err != nil {
				return false
			}
			for i, want := range dense.Amplitudes() {
				if !got[i].ApproxEq(want, 1e-7) {
					t.Logf("seed=%d n=%d ops=%d norm=%v: amplitude %d: %v vs %v",
						seed, n, ops, norm, i, got[i], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestOptimizePreservesSemantics optimizes random circuits and checks the
// final state is exactly unchanged.
func TestOptimizePreservesSemantics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	f := func(seed uint64) bool {
		original := randomCircuit(seed, 4, 40)
		optimized := randomCircuit(seed, 4, 40) // identical construction
		circuit.Optimize(optimized)

		a, err := NewVector(original, 0)
		if err != nil {
			return false
		}
		sa, err := a.Run()
		if err != nil {
			return false
		}
		b, err := NewVector(optimized, 0)
		if err != nil {
			return false
		}
		sb, err := b.Run()
		if err != nil {
			return false
		}
		dev, err := sa.MaxDeviationFrom(sb)
		if err != nil {
			return false
		}
		if dev > 1e-12 {
			t.Logf("seed %d: optimization changed the state by %v", seed, dev)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestOptimizeShrinksRedundantCircuits drives an artificially redundant
// circuit through the optimizer and both backends.
func TestOptimizeShrinksRedundantCircuits(t *testing.T) {
	c := circuit.New(3, "redundant")
	for i := 0; i < 10; i++ {
		c.H(0).H(0).T(1).X(2).X(2)
	}
	before := c.NumOps()
	res := circuit.Optimize(c)
	if res.Total() == 0 || c.NumOps() >= before {
		t.Fatalf("no shrink: %d -> %d (%+v)", before, c.NumOps(), res)
	}
	// 10 T gates survive.
	if got := c.GateCounts()["t"]; got != 10 {
		t.Errorf("t count = %d, want 10", got)
	}
	crossValidate(t, c, dd.NormL2Phase)
}

// TestUncomputeViaAdjoint runs a random circuit forward, then applies the
// inverse of every operator in reverse order; the state must return to
// |0...0⟩ exactly (up to tolerance). Each inverse is built independently of
// the forward operator: a gate's conjugate-transposed 2×2 matrix through
// GateDD, a permutation's inverted map through PermutationDD. Exercises Mul
// and both operator constructors together.
func TestUncomputeViaAdjoint(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	f := func(seed uint64) bool {
		c := randomCircuit(seed, 4, 25)
		s, err := NewDD(c)
		if err != nil {
			return false
		}
		state, err := s.Run()
		if err != nil {
			return false
		}
		m := s.Manager()
		// Collect inverse operator DDs in order, then unapply.
		var inverses []dd.MEdge
		for _, op := range c.Ops {
			var e dd.MEdge
			switch op.Kind {
			case circuit.GateOp:
				u := op.Gate.Matrix()
				var adj dd.GateMatrix
				for r := 0; r < 2; r++ {
					for k := 0; k < 2; k++ {
						adj[r][k] = u[k][r].Conj()
					}
				}
				e = m.GateDD(adj, op.Target, ddControls(op.Controls)...)
			case circuit.PermutationOp:
				inv := make([]uint64, len(op.Perm))
				for j, p := range op.Perm {
					inv[p] = uint64(j)
				}
				e, err = m.PermutationDD(inv, op.PermWidth, ddControls(op.Controls)...)
				if err != nil {
					return false
				}
			default:
				continue
			}
			inverses = append(inverses, e)
		}
		for i := len(inverses) - 1; i >= 0; i-- {
			state = m.Mul(inverses[i], state)
		}
		amp := m.Amplitude(state, 0)
		if amp.Abs() < 1-1e-6 {
			t.Logf("seed %d: |⟨0|U†U|0⟩| = %v", seed, amp.Abs())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
