// Package workload generates the database operations behind the paper's
// experiments: the YCSB-Workload-A-style transaction bodies attached to each
// detection ("6 operations, half of these mutate the state of the database
// by inserting data items, and the other half read from previously added
// items"), and the hot-spot update bodies of the Figure 6(b) contention
// experiment.
package workload

import (
	"math"
	"math/rand"
	"strconv"
	"sync"

	"croesus/internal/store"
)

// OpKind distinguishes reads from writes.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpInsert
)

// Op is one database operation.
type Op struct {
	Kind OpKind
	Key  string
}

// KeyChooser picks keys from a key space.
type KeyChooser interface {
	Pick(rng *rand.Rand) string
}

// Uniform picks uniformly from [0, N).
type Uniform struct {
	Prefix string
	N      int
}

// Pick returns a uniformly random key.
func (u Uniform) Pick(rng *rand.Rand) string {
	return store.ItoaKey(u.Prefix, rng.Intn(u.N))
}

// ShardKey builds the fleet-wide sharded key "s<shard>/<prefix>:<i>". The
// shard tag makes key ownership syntactic, so the cluster's
// placement-aware partitioner routes without a directory lookup. Keys are
// interned like store.ItoaKey's, under the interned shard prefix
// "s<shard>/<prefix>", so repeated draws allocate nothing.
func ShardKey(shard int, prefix string, i int) string {
	return store.ItoaKey(shardPrefix(shard, prefix), i)
}

// shardPrefixes interns ShardKey's "s<shard>/<prefix>" prefixes.
var (
	shardPrefixMu sync.RWMutex
	shardPrefixes = make(map[shardPrefixKey]string)
)

type shardPrefixKey struct {
	shard  int
	prefix string
}

func shardPrefix(shard int, prefix string) string {
	k := shardPrefixKey{shard, prefix}
	shardPrefixMu.RLock()
	p, ok := shardPrefixes[k]
	shardPrefixMu.RUnlock()
	if ok {
		return p
	}
	shardPrefixMu.Lock()
	defer shardPrefixMu.Unlock()
	if p, ok = shardPrefixes[k]; !ok {
		p = "s" + strconv.Itoa(shard) + "/" + prefix
		shardPrefixes[k] = p
	}
	return p
}

// ShardOf parses the owning shard of a sharded key; ok is false for keys
// without a shard tag.
func ShardOf(key string) (shard int, ok bool) {
	if len(key) < 3 || key[0] != 's' {
		return 0, false
	}
	i := 1
	for i < len(key) && key[i] >= '0' && key[i] <= '9' {
		shard = shard*10 + int(key[i]-'0')
		i++
	}
	if i == 1 || i >= len(key) || key[i] != '/' {
		return 0, false
	}
	return shard, true
}

// ShardedUniform picks keys from a fleet-wide keyspace of Shards shards
// with N keys each: with probability CrossProb the key belongs to a
// uniformly random *other* shard (a cross-edge access), otherwise to the
// Home shard — the workload knob behind the cluster's CrossEdgeFraction.
type ShardedUniform struct {
	Prefix    string
	Home      int
	Shards    int
	N         int
	CrossProb float64
}

// Pick returns a sharded key, remote with probability CrossProb.
func (s ShardedUniform) Pick(rng *rand.Rand) string {
	shard := s.Home
	if s.Shards > 1 && rng.Float64() < s.CrossProb {
		shard = rng.Intn(s.Shards - 1)
		if shard >= s.Home {
			shard++
		}
	}
	return ShardKey(shard, s.Prefix, rng.Intn(s.N))
}

// Zipf picks with a Zipfian distribution (YCSB's default skew): key index
// k ∈ [0, n) with probability ∝ (1+k)^-s. It is a plain value — every draw
// comes from the rng handed to Pick, so a key stream is a function of that
// rng alone, however many goroutines share the chooser. Sampling is
// rejection-inversion (Hörmann & Derflinger, "Rejection-inversion to
// generate variates from monotone discrete distributions", 1996), the
// method of math/rand.Zipf with v = 1; the fields are its precomputed
// constants.
type Zipf struct {
	Prefix string

	q            float64 // the exponent s
	oneMinusQ    float64
	oneMinusQInv float64
	hxm          float64 // h(imax + ½)
	hx0MinusHxm  float64
	accept       float64 // squeeze bound: k − x ≤ accept needs no h() call
}

// NewZipf returns a Zipfian chooser over n keys with exponent s > 1.
// Out-of-contract parameters are clamped into validity: n to at least 2,
// s to just above 1.
func NewZipf(prefix string, n int, s float64) Zipf {
	if n < 2 {
		n = 2
	}
	if s <= 1 {
		s = 1.0001
	}
	z := Zipf{Prefix: prefix, q: s, oneMinusQ: 1 - s, oneMinusQInv: 1 / (1 - s)}
	z.hxm = z.h(float64(n-1) + 0.5)
	z.hx0MinusHxm = z.h(0.5) - 1 - z.hxm
	z.accept = 1 - z.hinv(z.h(1.5)-math.Exp(-s*math.Log(2)))
	return z
}

func (z Zipf) h(x float64) float64 {
	return math.Exp(z.oneMinusQ*math.Log(1+x)) * z.oneMinusQInv
}

func (z Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneMinusQInv*math.Log(z.oneMinusQ*x)) - 1
}

// Pick returns a Zipf-distributed key.
func (z Zipf) Pick(rng *rand.Rand) string {
	return store.ItoaKey(z.Prefix, z.PickIndex(rng))
}

// PickIndex returns a Zipf-distributed key index in [0, n).
func (z Zipf) PickIndex(rng *rand.Rand) int {
	for {
		ur := z.hxm + rng.Float64()*z.hx0MinusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.accept || ur >= z.h(k+0.5)-math.Exp(-math.Log(k+1)*z.q) {
			return int(k)
		}
	}
}

// ShardedZipf composes Zipf with the sharded fleet keyspace: key indexes
// are Zipf-skewed (so every shard has its own hot head, and cross-edge
// traffic concentrates on remote hot keys — the hot-shard stress the
// sharded experiments need), while the owning shard is chosen like
// ShardedUniform — Home, or a uniformly random other shard with
// probability CrossProb.
type ShardedZipf struct {
	Home      int
	Shards    int
	CrossProb float64
	Zipf      Zipf
}

// Pick returns a sharded, Zipf-skewed key: remote with probability
// CrossProb, index skewed toward each shard's head.
func (s ShardedZipf) Pick(rng *rand.Rand) string {
	shard := s.Home
	if s.Shards > 1 && rng.Float64() < s.CrossProb {
		shard = rng.Intn(s.Shards - 1)
		if shard >= s.Home {
			shard++
		}
	}
	return ShardKey(shard, s.Zipf.Prefix, s.Zipf.PickIndex(rng))
}

// AppendDetectionOps builds the paper's per-detection transaction body —
// nOps operations, half inserts and half reads, on keys drawn from the
// chooser — appending them to dst (nil allocates).
func AppendDetectionOps(dst []Op, rng *rand.Rand, chooser KeyChooser, nOps int) []Op {
	for i := 0; i < nOps; i++ {
		kind := OpInsert
		if i%2 == 1 {
			kind = OpRead
		}
		dst = append(dst, Op{Kind: kind, Key: chooser.Pick(rng)})
	}
	return dst
}

// UpdateOps builds the Figure 6(b) hot-spot body: nOps update operations on
// keys drawn uniformly from [0, keyRange).
func UpdateOps(rng *rand.Rand, prefix string, keyRange, nOps int) []Op {
	ops := make([]Op, nOps)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Key: store.ItoaKey(prefix, rng.Intn(keyRange))}
	}
	return ops
}
