// Package circuit provides the intermediate representation for quantum
// circuits: an ordered list of operations over a fixed qubit register.
// Operations are either controlled single-qubit gates or classical
// reversible permutations of a low-qubit sub-register (used by Shor's
// modular exponentiation). Measurement of the full register at the end of
// the circuit is implicit — weak simulation *is* the measurement.
package circuit

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"weaksim/internal/gate"
)

// OpKind distinguishes the operation flavors.
type OpKind int

const (
	// GateOp is a (multi-)controlled single-qubit gate.
	GateOp OpKind = iota
	// PermutationOp is a classical reversible map on the lowest PermWidth
	// qubits, optionally controlled by higher qubits.
	PermutationOp
	// BarrierOp is a no-op marker useful for structuring and rendering.
	BarrierOp
)

// Op is one circuit operation.
type Op struct {
	Kind     OpKind
	Gate     gate.Gate      // GateOp only
	Target   int            // GateOp only
	Controls []gate.Control // GateOp and PermutationOp

	Perm      []uint64 // PermutationOp only: |j⟩ -> |Perm[j]⟩ on the low register
	PermWidth int      // PermutationOp only
	Label     string   // optional; names one permutation map (see Validate)
}

// Circuit is an ordered list of operations on NQubits qubits. Qubit 0 is
// the least significant bit of a measured bitstring.
type Circuit struct {
	NQubits int
	Name    string
	Ops     []Op
}

// New returns an empty circuit on n qubits.
func New(n int, name string) *Circuit {
	if n < 1 {
		panic("circuit: need at least one qubit")
	}
	return &Circuit{NQubits: n, Name: name}
}

// Validate checks all operation indices against the register size. A
// permutation label names one map: every labeled permutation must match
// the width and map of the first one under its label, since simulators may
// memoize a permutation's operator by label.
func (c *Circuit) Validate() error {
	labeled := make(map[string]int) // label -> index of its first permutation
	for i, op := range c.Ops {
		switch op.Kind {
		case GateOp:
			if op.Target < 0 || op.Target >= c.NQubits {
				return fmt.Errorf("circuit %q op %d: target %d out of range", c.Name, i, op.Target)
			}
			for _, p := range op.Gate.Params {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					return fmt.Errorf("circuit %q op %d: %s parameter %v is not finite", c.Name, i, op.Gate.Name(), p)
				}
			}
			seen := map[int]bool{op.Target: true}
			for _, ctl := range op.Controls {
				if ctl.Qubit < 0 || ctl.Qubit >= c.NQubits {
					return fmt.Errorf("circuit %q op %d: control %d out of range", c.Name, i, ctl.Qubit)
				}
				if seen[ctl.Qubit] {
					return fmt.Errorf("circuit %q op %d: qubit %d used twice", c.Name, i, ctl.Qubit)
				}
				seen[ctl.Qubit] = true
			}
		case PermutationOp:
			if op.PermWidth < 1 || op.PermWidth > c.NQubits {
				return fmt.Errorf("circuit %q op %d: permutation width %d out of range", c.Name, i, op.PermWidth)
			}
			if len(op.Perm) != 1<<uint(op.PermWidth) {
				return fmt.Errorf("circuit %q op %d: permutation has %d entries, want %d", c.Name, i, len(op.Perm), 1<<uint(op.PermWidth))
			}
			// Reject non-bijective tables up front so both backends fail
			// identically (the dense backend would otherwise lose norm, the
			// DD backend would build a non-unitary operator).
			seen := make([]bool, len(op.Perm))
			for j, p := range op.Perm {
				if p >= uint64(len(op.Perm)) {
					return fmt.Errorf("circuit %q op %d: permutation entry perm[%d]=%d out of range", c.Name, i, j, p)
				}
				if seen[p] {
					return fmt.Errorf("circuit %q op %d: permutation maps two inputs to %d (not a bijection)", c.Name, i, p)
				}
				seen[p] = true
			}
			for _, ctl := range op.Controls {
				if ctl.Qubit < op.PermWidth || ctl.Qubit >= c.NQubits {
					return fmt.Errorf("circuit %q op %d: permutation control %d out of range", c.Name, i, ctl.Qubit)
				}
			}
			if op.Label != "" {
				if first, ok := labeled[op.Label]; !ok {
					labeled[op.Label] = i
				} else if f := c.Ops[first]; f.PermWidth != op.PermWidth || !slices.Equal(f.Perm, op.Perm) {
					return fmt.Errorf("circuit %q op %d: permutation label %q already names a different map (op %d)", c.Name, i, op.Label, first)
				}
			}
		case BarrierOp:
			// nothing to check
		default:
			return fmt.Errorf("circuit %q op %d: unknown op kind %d", c.Name, i, int(op.Kind))
		}
	}
	return nil
}

// Apply appends a controlled single-qubit gate.
func (c *Circuit) Apply(g gate.Gate, target int, controls ...gate.Control) *Circuit {
	c.Ops = append(c.Ops, Op{Kind: GateOp, Gate: g, Target: target, Controls: controls})
	return c
}

// Permutation appends a classical reversible operation on the lowest width
// qubits.
func (c *Circuit) Permutation(perm []uint64, width int, label string, controls ...gate.Control) *Circuit {
	c.Ops = append(c.Ops, Op{
		Kind: PermutationOp, Perm: perm, PermWidth: width,
		Label: label, Controls: controls,
	})
	return c
}

// Barrier appends a structural marker.
func (c *Circuit) Barrier() *Circuit {
	c.Ops = append(c.Ops, Op{Kind: BarrierOp})
	return c
}

// Gate shorthands. Each returns the circuit for chaining.

// H applies a Hadamard gate to qubit q.
func (c *Circuit) H(q int) *Circuit { return c.Apply(gate.HGate, q) }

// X applies a NOT gate to qubit q.
func (c *Circuit) X(q int) *Circuit { return c.Apply(gate.XGate, q) }

// Y applies a Pauli-Y gate to qubit q.
func (c *Circuit) Y(q int) *Circuit { return c.Apply(gate.YGate, q) }

// Z applies a Pauli-Z gate to qubit q.
func (c *Circuit) Z(q int) *Circuit { return c.Apply(gate.ZGate, q) }

// S applies the phase gate to qubit q.
func (c *Circuit) S(q int) *Circuit { return c.Apply(gate.SGate, q) }

// T applies the T gate to qubit q.
func (c *Circuit) T(q int) *Circuit { return c.Apply(gate.TGate, q) }

// RX applies an X rotation by theta to qubit q.
func (c *Circuit) RX(theta float64, q int) *Circuit { return c.Apply(gate.RXGate(theta), q) }

// RY applies a Y rotation by theta to qubit q.
func (c *Circuit) RY(theta float64, q int) *Circuit { return c.Apply(gate.RYGate(theta), q) }

// RZ applies a Z rotation by theta to qubit q.
func (c *Circuit) RZ(theta float64, q int) *Circuit { return c.Apply(gate.RZGate(theta), q) }

// P applies a phase rotation diag(1, e^{iθ}) to qubit q.
func (c *Circuit) P(theta float64, q int) *Circuit { return c.Apply(gate.PhaseGate(theta), q) }

// CX applies a CNOT with control ctl and target tgt.
func (c *Circuit) CX(ctl, tgt int) *Circuit { return c.Apply(gate.XGate, tgt, gate.Pos(ctl)) }

// CZ applies a controlled-Z between the two qubits.
func (c *Circuit) CZ(a, b int) *Circuit { return c.Apply(gate.ZGate, b, gate.Pos(a)) }

// CP applies a controlled phase rotation.
func (c *Circuit) CP(theta float64, ctl, tgt int) *Circuit {
	return c.Apply(gate.PhaseGate(theta), tgt, gate.Pos(ctl))
}

// CCX applies a Toffoli gate.
func (c *Circuit) CCX(c1, c2, tgt int) *Circuit {
	return c.Apply(gate.XGate, tgt, gate.Pos(c1), gate.Pos(c2))
}

// MCX applies a NOT on tgt controlled on all ctls being |1⟩.
func (c *Circuit) MCX(ctls []int, tgt int) *Circuit {
	controls := make([]gate.Control, len(ctls))
	for i, q := range ctls {
		controls[i] = gate.Pos(q)
	}
	return c.Apply(gate.XGate, tgt, controls...)
}

// MCZ applies a Z on tgt controlled on all ctls being |1⟩.
func (c *Circuit) MCZ(ctls []int, tgt int) *Circuit {
	controls := make([]gate.Control, len(ctls))
	for i, q := range ctls {
		controls[i] = gate.Pos(q)
	}
	return c.Apply(gate.ZGate, tgt, controls...)
}

// Swap exchanges qubits a and b using three CNOTs.
func (c *Circuit) Swap(a, b int) *Circuit {
	return c.CX(a, b).CX(b, a).CX(a, b)
}

// NumOps returns the number of non-barrier operations.
func (c *Circuit) NumOps() int {
	n := 0
	for _, op := range c.Ops {
		if op.Kind != BarrierOp {
			n++
		}
	}
	return n
}

// GateCounts returns a histogram of operation mnemonics, e.g.
// {"h": 12, "cx": 4, "perm": 2}.
func (c *Circuit) GateCounts() map[string]int {
	counts := make(map[string]int)
	for _, op := range c.Ops {
		switch op.Kind {
		case GateOp:
			name := op.Gate.Name()
			if len(op.Controls) > 0 {
				name = strings.Repeat("c", len(op.Controls)) + name
			}
			counts[name]++
		case PermutationOp:
			counts["perm"]++
		}
	}
	return counts
}

// OpString renders one operation in a compact human-readable form.
func OpString(op Op) string {
	switch op.Kind {
	case GateOp:
		var b strings.Builder
		b.WriteString(op.Gate.String())
		for _, ctl := range op.Controls {
			if ctl.Negative {
				fmt.Fprintf(&b, " !c%d", ctl.Qubit)
			} else {
				fmt.Fprintf(&b, " c%d", ctl.Qubit)
			}
		}
		fmt.Fprintf(&b, " q%d", op.Target)
		return b.String()
	case PermutationOp:
		label := op.Label
		if label == "" {
			label = "perm"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s[q0..q%d]", label, op.PermWidth-1)
		for _, ctl := range op.Controls {
			if ctl.Negative {
				fmt.Fprintf(&b, " !c%d", ctl.Qubit)
			} else {
				fmt.Fprintf(&b, " c%d", ctl.Qubit)
			}
		}
		return b.String()
	case BarrierOp:
		return "barrier"
	default:
		return "?"
	}
}

// String lists the circuit one operation per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %q on %d qubits, %d ops\n", c.Name, c.NQubits, c.NumOps())
	for _, op := range c.Ops {
		b.WriteString("  ")
		b.WriteString(OpString(op))
		b.WriteByte('\n')
	}
	return b.String()
}

// Depth returns the circuit depth: the length of the longest chain of
// operations that share qubits, i.e. the number of parallel execution
// layers a quantum computer would need. Barriers synchronize all qubits
// without occupying a layer themselves.
func (c *Circuit) Depth() int {
	level := make([]int, c.NQubits)
	depth := 0
	for _, op := range c.Ops {
		switch op.Kind {
		case BarrierOp:
			max := 0
			for _, l := range level {
				if l > max {
					max = l
				}
			}
			for q := range level {
				level[q] = max
			}
		case GateOp, PermutationOp:
			qs := c.opQubitList(op)
			max := 0
			for _, q := range qs {
				if level[q] > max {
					max = level[q]
				}
			}
			for _, q := range qs {
				level[q] = max + 1
			}
			if max+1 > depth {
				depth = max + 1
			}
		}
	}
	return depth
}

// opQubitList returns the qubits an operation touches.
func (c *Circuit) opQubitList(op Op) []int {
	var qs []int
	switch op.Kind {
	case GateOp:
		qs = append(qs, op.Target)
	case PermutationOp:
		for q := 0; q < op.PermWidth; q++ {
			qs = append(qs, q)
		}
	}
	for _, ctl := range op.Controls {
		qs = append(qs, ctl.Qubit)
	}
	return qs
}
