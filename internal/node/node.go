// Package node is the shared fleet-node assembly layer: the storage and
// transaction stack every Croesus edge runs, whatever delivers its frames.
// Both deployments build on it — internal/cluster assembles its simulated
// edge nodes here, and internal/tcpnet its real TCP edge servers — so
// protocol selection and the store/locks/manager wiring exist exactly once
// instead of being duplicated per deployment. A durable edge (croesus-edge
// -wal) is assembled here too, as a one-partition twopc fleet (NewDurable).
package node

import (
	"fmt"

	"croesus/internal/lock"
	"croesus/internal/obs"
	"croesus/internal/store"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/wal"
)

// ParseProtocol reads the command-line spelling: "ms-ia" or "ms-sr".
func ParseProtocol(s string) (twopc.Protocol, error) {
	switch s {
	case "", "ms-ia":
		return twopc.MSIA, nil
	case "ms-sr":
		return twopc.MSSR, nil
	default:
		return twopc.MSIA, fmt.Errorf("node: unknown protocol %q (want ms-ia or ms-sr)", s)
	}
}

// Assembly is one standalone edge node's data stack: its store, lock
// manager, transaction manager, and the protocol's concurrency control.
// Sharded fleets replace Mgr/CC with fleet-wide machinery (twopc) but keep
// the same Store and Locks underneath.
type Assembly struct {
	Store *store.Store
	Locks *lock.Manager
	Mgr   *txn.Manager
	CC    txn.CC
	// Part is a durable node's one partition, which owns the write-ahead
	// log; nil on a volatile node (see NewDurable).
	Part *twopc.Partition
}

// New assembles a fresh edge node on clk.
func New(clk vclock.Clock, p twopc.Protocol) *Assembly {
	return NewOver(clk, store.New(), lock.NewManager(clk), p)
}

// NewOver assembles an edge node over an existing store and lock manager —
// how the cluster runtime reuses the stores it pre-provisioned per edge.
func NewOver(clk vclock.Clock, st *store.Store, locks *lock.Manager, p twopc.Protocol) *Assembly {
	mgr := txn.NewManager(clk, st, locks)
	var cc txn.CC
	if p == twopc.MSSR {
		cc = &txn.MSSR{M: mgr, Policy: txn.Wait}
	} else {
		cc = &txn.MSIA{M: mgr}
	}
	return &Assembly{Store: st, Locks: locks, Mgr: mgr, CC: cc}
}

// NewDurable assembles a fresh edge node whose writes survive a crash: a
// fleet of one partition logging to the write-ahead log at walPath, whose
// commits take the path a simulated durable partition's do. The manager
// writes through the plain twopc.ShardedStore, and a twopc.ShardedCC over
// the partition (its one link nil: the partition is local) logs each
// section boundary as its redo records plus a commit marker, in one batch —
// MS-IA at every boundary, MS-SR once, at the last. Only retraction restores and aborted
// sections' undo journal write by write, through the manager's RestoreDB,
// as non-transactional records. An existing log is replayed into the store
// first; the replay is returned for its record count and torn-tail flag.
// noSync skips the fsync per batch.
func NewDurable(clk vclock.Clock, p twopc.Protocol, walPath string, noSync bool) (*Assembly, *wal.RecoverResult, error) {
	st, locks := store.New(), lock.NewManager(clk)
	part := twopc.NewPartitionOver(0, st, locks)
	res, err := part.OpenWAL(walPath, noSync)
	if err != nil {
		return nil, nil, err
	}
	db := &twopc.ShardedStore{Parts: []*twopc.Partition{part}, Partitioner: onePartition}
	mgr := txn.NewManager(clk, st, locks)
	mgr.DB = db
	mgr.RestoreDB = twopc.JournaledShardedStore{ShardedStore: db}
	cc := &twopc.ShardedCC{
		Clk:         clk,
		M:           mgr,
		Parts:       db.Parts,
		Links:       make([]transport.Path, 1), // the partition is local
		Partitioner: onePartition,
		Protocol:    p,
		Stats:       &twopc.DistStats{},
	}
	return &Assembly{Store: st, Locks: locks, Mgr: mgr, CC: cc, Part: part}, res, nil
}

func onePartition(string) int { return 0 }

// Observe sends the node's retraction spans — and, on a durable node, its
// lock-wait spans — to o's tracer under the tag string tags.
func (a *Assembly) Observe(o *obs.Obs, tags string) {
	a.Mgr.Tracer, a.Mgr.TraceTags = o.Tracer(), tags
	if cc, ok := a.CC.(*twopc.ShardedCC); ok {
		cc.Obs, cc.Tags = o, tags
	}
}
