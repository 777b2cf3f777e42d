// Package rng provides the deterministic random source used by all
// stochastic components (oracle selection, supremacy circuit generation,
// sampling). Every experiment takes an explicit seed so runs are exactly
// reproducible.
package rng

import "math/rand/v2"

// RNG is a seeded pseudo-random number generator (PCG under the hood).
// It is not safe for concurrent use.
//
// The concrete *rand.PCG is kept next to the *rand.Rand that wraps it: both
// advance the same state, so the sampling draws (Float64, Uint64) call the
// PCG directly instead of through the rand.Source interface, while the other
// methods keep math/rand/v2's exact algorithms.
type RNG struct {
	r   *rand.Rand
	pcg *rand.PCG
}

// New returns a generator seeded with the given value.
func New(seed uint64) *RNG {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{r: rand.New(pcg), pcg: pcg}
}

// Float64 returns a uniform value in [0, 1): float64(k)/2^53, where k is the
// low 53 bits of the next 64-bit draw. That is bit for bit what
// math/rand/v2.Rand.Float64 returns over the same state.
func (g *RNG) Float64() float64 { return float64(g.pcg.Uint64()<<11>>11) / (1 << 53) }

// IntN returns a uniform value in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64N returns a uniform value in [0, n).
func (g *RNG) Uint64N(n uint64) uint64 { return g.r.Uint64N(n) }

// Uint64 returns a uniform 64-bit value: the PCG's next output, which is
// what math/rand/v2.Rand.Uint64 returns over the same state.
func (g *RNG) Uint64() uint64 { return g.pcg.Uint64() }

// Split derives an independent generator from this one, for components that
// need their own stream without perturbing the parent's sequence.
func (g *RNG) Split() *RNG {
	return New(g.r.Uint64())
}
