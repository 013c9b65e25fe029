// Package randsrc is the repo's one seeded RNG: splitmix64 behind
// rand.Source64, so call sites keep the *rand.Rand method surface.
//
// The simulated detectors and the workload source derive a fresh RNG per
// (seed, frame) so that detections and key draws are pure functions of
// their inputs, and most of those streams draw a handful of values. The
// generator is therefore counter-based — one word of state, a draw is one
// add and one mix — and the Rand wrappers are pooled, so the steady-state
// path allocates nothing.
//
// The contract is "same seed ⇒ same stream, fresh or pooled". No report
// depends on which generator this is, only on it not changing: replacing
// it means regenerating the golden fixtures once.
package randsrc

import (
	"math/rand"
	"sync"
)

// Mix64 is the splitmix64 finalizer, a bijection on uint64 that spreads
// every input bit over the whole word: the tree's one hash for turning a
// (seed, frame, track) key into a seed or a uniform.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// source is splitmix64: a counter stepped by the golden-ratio increment and
// finalized by Mix64. Every seed walks the same cycle, so Seed starts at
// the seed's own first draw, which puts neighbouring seeds (seed+i,
// seed+i*101) at unrelated points of it.
type source struct{ x uint64 }

func (s *source) Seed(seed int64) {
	s.x = uint64(seed)
	s.x = s.Uint64()
}

func (s *source) Uint64() uint64 {
	s.x += 0x9E3779B97F4A7C15
	return Mix64(s.x)
}

func (s *source) Int63() int64 { return int64(s.Uint64() >> 1) }

// New returns an unpooled *rand.Rand, for long-lived generators.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// R is a pooled RNG: a source plus the *rand.Rand that wraps it. Obtain
// with Get, use Rand, and Put it back once the derived values have been
// consumed; an R must not be used after Put.
type R struct {
	src  source
	Rand *rand.Rand
}

var rPool = sync.Pool{New: func() any {
	r := &R{}
	r.Rand = rand.New(&r.src)
	return r
}}

// Get returns a pooled *R whose Rand draws the same stream as New(seed).
func Get(seed int64) *R {
	r := rPool.Get().(*R)
	r.src.Seed(seed)
	return r
}

// Put returns r to the pool.
func Put(r *R) { rPool.Put(r) }

// Put returns r to the pool (method form for defer-friendly call sites).
func (r *R) Put() { rPool.Put(r) }
