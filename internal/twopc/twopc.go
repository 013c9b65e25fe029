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
	// walStaged holds the prepared-but-undecided blocks this partition
	// participates in, keyed per commit round (a multi-stage transaction's
	// rounds are independent 2PC instances); restaged counts those crash
	// recovery re-installed. Only while there are any do data appends look
	// for staged writes they supersede (see walStage).
	walStaged map[CommitRound]*walStage
	restaged  int
	// decisions holds the commit decisions this partition coordinates that
	// a participant has not yet durably logged, each with those participants
	// (nil: not yet known, while phase 2 delivers or after recovery). Once
	// none is left the round is forgotten, and its end record waits in ends
	// for the next batch: it is never forced, and a crash that loses it
	// brings the round back to be retired again.
	decisions map[CommitRound][]int
	ends      []wal.Record
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
