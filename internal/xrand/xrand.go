// Package xrand provides a cheap deterministic random source for the
// identification hot path. math/rand's default lagged-Fibonacci source
// burns ~600 multiplications seeding its 607-word state, which profiles
// showed costing ~5% of a cache-miss identification (the service seeds one
// RNG per request, a batch one per job). The SplitMix64 generator here
// seeds in O(1), draws faster, and passes through the standard *rand.Rand
// front end so every consumer keeps its signature.
//
// Streams are deterministic per seed (the repo-wide reproducibility
// contract) but differ from math/rand's streams for the same seed. The
// identification paths (service requests, batch jobs, the census
// runner — and therefore the regenerated Table IV) draw from this source;
// training-set generation intentionally stays on math/rand so trained and
// published models are bit-identical to earlier builds.
package xrand

import "math/rand"

// source implements rand.Source64 with the SplitMix64 generator
// (Steele, Lea, Flood 2014) -- 64-bit state, O(1) seeding, passes BigCrush.
type source struct {
	state uint64
}

var _ rand.Source64 = (*source)(nil)

func (s *source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *source) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *source) Seed(seed int64) { s.state = uint64(seed) }

// New returns a *rand.Rand over a SplitMix64 source seeded with seed.
func New(seed int64) *rand.Rand { return rand.New(&source{state: uint64(seed)}) }

// Reseed rewinds r -- which must come from New -- to the exact stream
// New(seed) produces. Per-job paths (core.Identifier.IdentifyEach's pool
// workers) keep one RNG per worker and reseed it between jobs instead of paying New's two
// allocations per job.
func Reseed(r *rand.Rand, seed int64) { r.Seed(seed) }
