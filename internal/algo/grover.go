package algo

import (
	"fmt"
	"math"

	"weaksim/internal/circuit"
	"weaksim/internal/gate"
	"weaksim/internal/rng"
)

// Grover returns Grover's search over n search qubits with a random oracle
// marking a single element drawn from the seeded generator, matching the
// paper's grover_A benchmarks (A search qubits plus one oracle ancilla, so
// A+1 qubits in total). The returned marked element is the expected
// dominant measurement outcome on the search register.
func Grover(n int, seed uint64) (*circuit.Circuit, uint64) {
	r := rng.New(seed)
	marked := r.Uint64N(uint64(1) << uint(n))
	return GroverFor(n, marked), marked
}

// GroverFor returns Grover's search for a specific marked element. Qubits
// 0..n-1 form the search register; qubit n is the oracle ancilla prepared
// in |−⟩ for phase kickback.
func GroverFor(n int, marked uint64) *circuit.Circuit {
	if n < 2 {
		panic("algo: Grover needs at least two search qubits")
	}
	if marked >= uint64(1)<<uint(n) {
		panic("algo: marked element out of range")
	}
	c := circuit.New(n+1, fmt.Sprintf("grover_%d", n))
	anc := n
	iters := GroverIterations(n)
	// State preparation is n+3 ops; an iteration is the oracle, 4n+1
	// diffusion ops and a barrier. Every iteration's two multi-controlled
	// gates take their controls from one slab.
	c.Ops = make([]circuit.Op, 0, n+3+iters*(4*n+3))
	slab := make([]gate.Control, 0, iters*(2*n-1))

	// Ancilla |−⟩ and uniform superposition over the search register.
	c.X(anc)
	c.H(anc)
	for q := 0; q < n; q++ {
		c.H(q)
	}

	c.Barrier() // end of state preparation
	for it := 0; it < iters; it++ {
		slab = appendGroverOracle(c, slab, n, marked)
		slab = appendGroverDiffusion(c, slab, n)
		c.Barrier() // end of one Grover iteration
	}
	return c
}

// GroverIterations returns the optimal iteration count ⌊π/4·√(2^n)⌋ for a
// single marked element.
func GroverIterations(n int) int {
	return int(math.Floor(math.Pi / 4 * math.Sqrt(math.Pow(2, float64(n)))))
}

// appendGroverOracle flips the ancilla iff the search register equals the
// marked element: a multi-controlled X with a negative control on every
// zero bit. Its controls are appended to slab, which it returns.
func appendGroverOracle(c *circuit.Circuit, slab []gate.Control, n int, marked uint64) []gate.Control {
	start := len(slab)
	for q := 0; q < n; q++ {
		slab = append(slab, gate.Control{Qubit: q, Negative: marked>>uint(q)&1 == 0})
	}
	c.Apply(gate.XGate, n, slab[start:len(slab):len(slab)]...)
	return slab
}

// appendGroverDiffusion applies the inversion about the mean on the search
// register: H^n X^n (multi-controlled Z) X^n H^n. Its controls are
// appended to slab, which it returns.
func appendGroverDiffusion(c *circuit.Circuit, slab []gate.Control, n int) []gate.Control {
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for q := 0; q < n; q++ {
		c.X(q)
	}
	start := len(slab)
	for q := 0; q < n-1; q++ {
		slab = append(slab, gate.Pos(q))
	}
	c.Apply(gate.ZGate, n-1, slab[start:len(slab):len(slab)]...)
	for q := 0; q < n; q++ {
		c.X(q)
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	return slab
}
