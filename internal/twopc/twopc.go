// Package twopc implements the multi-partition operations of §4.5: a
// transaction whose sections touch keys owned by several edge partitions
// locks remote data by sending lock requests to the owning edge nodes and
// finishes each commit with a two-phase commit. Per the paper, atomic
// commitment runs at the end of the final section for MS-SR (locks are held
// across both sections anyway) and at the end of both the initial and the
// final sections for MS-IA.
package twopc

import (
	"errors"
	"sync"

	"croesus/internal/lock"
	"croesus/internal/obs"
	"croesus/internal/store"
	"croesus/internal/wal"
)

// ErrCrashed reports that an atomic-commitment round could not complete
// because an involved edge fail-stopped (or its link partitioned) — the
// section's commit did not happen and its eager writes must be undone.
var ErrCrashed = errors.New("twopc: edge crashed mid-commit")

// Partition is one edge node's shard of the database.
type Partition struct {
	ID    int
	Store *store.Store
	Locks *lock.Manager
	// WAL, when set, makes the partition durable: every section commit it
	// participates in is logged, and a crashed edge rebuilds the partition
	// from the log (see durable.go and internal/faults).
	WAL *wal.Log
	// WALAppends, when set, counts the records this partition logs — the
	// metrics registry's view of WAL traffic (nil: uncounted).
	WALAppends *obs.Counter

	// durable records WAL != nil at first use; see Durable.
	durableOnce sync.Once
	durable     bool

	mu sync.Mutex
	// walStaged and decisions are the durable-fleet protocol state:
	// prepared-but-undecided blocks and the commit/abort outcomes this
	// partition decided as a coordinator, keyed per commit round — a
	// multi-stage transaction's two rounds are independent 2PC instances.
	walStaged map[CommitRound]*walStage
	decisions map[CommitRound]bool
	// walDataSeq counts the data records this partition has logged and
	// walLastData remembers each key's latest; together they are the live
	// mirror of the last-writer-wins rule wal.Recover resolves by log
	// position, letting a deferred in-doubt resolution skip writes a
	// later record superseded. They survive CrashReset like the log does.
	walDataSeq  int64
	walLastData map[string]int64
	// redo is LogLocalCommit's record buffer, reused under mu.
	redo []wal.Record
}

// Protocol selects the multi-stage concurrency-control protocol (§4): it
// governs the lock scope and the commit rounds of ShardedCC, which every
// edge commits through, a one-partition standalone edge and a sharded fleet
// alike. The zero value is MS-IA, the paper's default.
type Protocol int

// Multi-stage protocols.
const (
	// MSIA is multi-stage invariant confluence with apologies: each
	// section locks (and, cross-edge, 2PC-commits) its own set; erroneous
	// initial commits are repaired by retraction cascades and apologies.
	MSIA Protocol = iota
	// MSSR is multi-stage serializability: both sections' locks are held
	// from the initial commit to the final commit, across the cloud round
	// trip, with one atomic commitment at the final.
	MSSR
)

func (p Protocol) String() string {
	if p == MSSR {
		return "MS-SR"
	}
	return "MS-IA"
}

// HashPartitioner returns the default key→partition mapping: FNV-1a over
// the key, modulo n. The cluster's placement-aware partitioner uses it
// for untagged keys, so a key routes identically everywhere.
func HashPartitioner(n int) func(key string) int {
	return func(key string) int {
		h := uint32(2166136261)
		for i := 0; i < len(key); i++ {
			h = (h ^ uint32(key[i])) * 16777619
		}
		return int(h % uint32(n))
	}
}
