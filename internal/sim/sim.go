// Package sim provides the deterministic seeded random source the
// network simulators draw from. Keeping it in one place guarantees every
// experiment in the reproduction is bit-reproducible from its seed.
package sim

import "math/rand"

// RNG is the deterministic random source for simulations. It wraps
// math/rand with an explicit seed so that experiment results are
// reproducible; no simulator may use global randomness.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Reseed rewinds the generator to the start of the stream for seed,
// producing exactly the sequence NewRNG(seed) would. It exists so hot
// paths (tcpsim's reusable engine) can reset a generator without
// allocating a new one.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }
