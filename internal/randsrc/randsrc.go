// Package randsrc is the repo's one seeded-RNG constructor: the hot-path
// replacement for rand.New(rand.NewSource(seed)).
//
// The simulated detectors and the workload source derive a fresh
// deterministic RNG per (seed, frame) so that detections and transaction
// key draws are pure functions of their inputs — but math/rand's
// NewSource(seed) runs ~1,900 modular multiplications to expand the seed
// into the generator's 607-word feedback register, for streams that draw
// a handful of values. This package replicates the exact generator (the
// frozen Mitchell–Reeds additive lagged-Fibonacci source behind math/rand)
// with a lazy register: word i of the freshly seeded register is a closed
// form of the seed (the seeding LCG can be jumped, see seeded), so Seed
// only stores the seed and Uint64 computes the two words a draw reads, each
// exactly once. Seeding is O(1), a stream pays for the words it draws, and
// nothing is memoised. cooked.go stays because the closed form still XORs
// in math/rand's whitening table; only a generator with a different value
// stream could drop it. Rand wrappers and registers are pooled, so the
// steady-state path allocates nothing.
//
// The value stream is bit-identical to rand.New(rand.NewSource(seed)) —
// TestStreamMatchesMathRand locks this down — so swapping call sites over
// cannot change any golden, report, or calibrated accuracy ordering.
package randsrc

import (
	"math/rand"
	"sync"
)

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	seedA = 48271 // multiplier of math/rand's seeding LCG, modulus 2³¹−1
)

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// jump[i][k] = seedA^(21+3i+k) mod 2³¹−1: stock Seed steps the LCG 20
// times, then draws three consecutive values for each register word.
var jump = func() (j [rngLen][3]uint32) {
	x := uint64(1)
	for n := 0; n < 20; n++ {
		x = mulmod(x, seedA)
	}
	for i := range j {
		for k := range j[i] {
			x = mulmod(x, seedA)
			j[i][k] = uint32(x)
		}
	}
	return j
}()

// source replicates math/rand.rngSource with a lazily expanded register.
// It implements rand.Source64, so rand.New drives it exactly as it would
// the stock source.
type source struct {
	x0   uint64 // the LCG's starting value, derived from the seed
	n    int    // draws since Seed, while words are still fresh (≤ lazyDraws)
	tap  int
	feed int
	vec  [rngLen]int64
}

// lazyDraws is the number of draws after Seed whose feed word is fresh:
// feed walks 333…0 before it wraps to words tap has already stored.
const lazyDraws = rngLen - rngTap

// Seed is O(1): the register words are computed by Uint64 as it reads them.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.n = 0

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// seeded returns word i of the register as stock Seed would have left it.
func (s *source) seeded(i int) int64 {
	j := &jump[i]
	u := mulmod(uint64(j[0]), s.x0)<<40 ^ mulmod(uint64(j[1]), s.x0)<<20 ^ mulmod(uint64(j[2]), s.x0)
	return int64(u) ^ rngCooked[i]
}

func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 is the stock x[feed] += x[tap] step. Until draw lazyDraws the feed
// word is fresh, and until draw rngTap so is the tap word, which is stored
// because feed reads it lazyDraws draws later; every word is thus computed
// once, and no stale word of a pooled register is ever read.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	var x int64
	if s.n < lazyDraws {
		t := s.vec[s.tap]
		if s.n < rngTap {
			t = s.seeded(s.tap)
			s.vec[s.tap] = t
		}
		x = s.seeded(s.feed) + t
		s.n++
	} else {
		x = s.vec[s.feed] + s.vec[s.tap]
	}
	s.vec[s.feed] = x
	return uint64(x)
}

// New returns an unpooled *rand.Rand with the identical value stream to
// rand.New(rand.NewSource(seed)), for long-lived generators.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// R is a pooled RNG: a replica source plus the *rand.Rand that wraps it.
// Obtain with Get, use Rand, and return with Put when the derived values
// have been consumed. An R must not be used after Put.
type R struct {
	src  source
	Rand *rand.Rand
}

var rPool = sync.Pool{New: func() any {
	r := &R{}
	r.Rand = rand.New(&r.src)
	return r
}}

// Get returns a pooled *R whose Rand produces the identical value stream
// to rand.New(rand.NewSource(seed)).
func Get(seed int64) *R {
	r := rPool.Get().(*R)
	r.src.Seed(seed)
	return r
}

// Put returns r to the pool.
func Put(r *R) { rPool.Put(r) }

// Put returns r to the pool (method form for defer-friendly call sites).
func (r *R) Put() { rPool.Put(r) }
