// Package node is the one place a Croesus data stack is assembled: the
// store, lock table, transaction manager and concurrency control every edge
// runs, whatever delivers its frames (§4). Every edge commits through a
// twopc.ShardedCC, under either protocol. New builds a standalone edge, a
// fleet of one link-less partition — internal/cluster's unsharded edges,
// internal/tcpnet's edge servers, the experiments and the public facade
// all take it. NewDurable is New whose partition logs to a write-ahead
// log (croesus edge -wal). NewFleet builds the sharded stack of §4.5:
// partitions under one fleet-wide manager, each edge committing through its
// own ShardedCC (Fleet.CC).
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

// Assembly is one edge node's data stack: its store, lock manager,
// transaction manager, and the protocol's concurrency control. Every node
// is a Fleet of one link-less partition whose ShardedCC commits both
// protocols (New); a durable one also logs that partition (NewDurable).
type Assembly struct {
	Store *store.Store
	Locks *lock.Manager
	Mgr   *txn.Manager
	CC    *twopc.ShardedCC
	// Part is a durable node's one partition, which owns the write-ahead
	// log; nil on a volatile node (see NewDurable).
	Part *twopc.Partition

	fleet *Fleet // the node's one-partition fleet
}

// New assembles a fresh standalone edge node on clk: a Fleet of one
// partition, its store and lock manager, the fleet's manager over them,
// and a link-less ShardedCC under protocol p (MS-SR acquires with
// wait-die; set CC.Policy for no-wait).
func New(clk vclock.Clock, p twopc.Protocol) *Assembly {
	f := NewFleet(clk, 1, func(string) int { return 0 }, nil, p)
	part := f.Parts[0]
	// Readers of the edge's manager see the partition's store and locks.
	f.Mgr.Store, f.Mgr.Locks = part.Store, part.Locks
	cc := f.CC(0, make([]transport.Path, 1)) // the partition is local
	return &Assembly{Store: part.Store, Locks: part.Locks, Mgr: f.Mgr, CC: cc, fleet: f}
}

// NewDurable assembles a fresh edge node whose writes survive a crash: New's
// node, whose partition logs to the write-ahead log at walPath, so its
// commits take a simulated durable partition's path. Its ShardedCC logs
// each section boundary as its redo records plus a commit marker, in one
// batch — MS-IA at every boundary, MS-SR once, at the last; only
// retraction restores and aborted sections' undo journal write by write
// (Fleet.Journal). An existing log is replayed into the store first; the
// replay is returned for its record count and torn-tail flag. noSync skips
// the fsync per batch.
func NewDurable(clk vclock.Clock, p twopc.Protocol, walPath string, noSync bool) (*Assembly, *wal.RecoverResult, error) {
	a := New(clk, p)
	part := a.fleet.Parts[0]
	res, err := part.OpenWAL(walPath, noSync)
	if err != nil {
		return nil, nil, err
	}
	a.fleet.Journal()
	a.Part = part
	return a, res, nil
}

// Observe binds the node to o under edge's tags, as the simulator binds a
// partition of its fleet (Fleet.Observe): its 2PC counters, WAL appends,
// and retraction and lock-wait spans. The manager serves this edge alone,
// so its retraction spans carry the edge's tag as the CC's spans do.
func (a *Assembly) Observe(o *obs.Obs, edge string) {
	a.fleet.Observe(o, []string{edge})
	a.fleet.observeCC(a.CC)
	a.Mgr.TraceTags = a.CC.Tags
}

// Fleet is the sharded data stack of §4.5: partitions, each over its own
// store and lock manager; one fleet-wide manager whose backend, the
// ShardedStore, routes every key to its partition, so the undo log and the
// dependency index span the fleet; and the 2PC counters every edge's
// ShardedCC shares.
type Fleet struct {
	Parts []*twopc.Partition
	DB    *twopc.ShardedStore
	Mgr   *txn.Manager
	Stats *twopc.DistStats

	clk   vclock.Clock
	p     twopc.Protocol
	obs   *obs.Obs
	edges []string // partition i's edge ID, for tags
}

// NewFleet assembles n fresh partitions on clk under protocol p. Keys
// route through smap when it is given — a mutable shard map, which also
// enrolls transactions in shard migration — and through route otherwise.
func NewFleet(clk vclock.Clock, n int, route func(key string) int, smap *twopc.ShardMap, p twopc.Protocol) *Fleet {
	parts := make([]*twopc.Partition, n)
	for i := range parts {
		parts[i] = twopc.NewPartitionOver(i, store.New(), lock.NewManager(clk))
	}
	db := &twopc.ShardedStore{Parts: parts, Partitioner: route}
	if smap != nil {
		db.Partitioner, db.Map, db.Clk = smap.Lookup, smap, clk
	}
	mgr := txn.NewManager(clk, nil, nil)
	mgr.DB = db
	return &Fleet{Parts: parts, DB: db, Mgr: mgr, Stats: &twopc.DistStats{}, clk: clk, p: p}
}

// CC returns the concurrency control of the edge homed on partition home:
// links[i] is its one-way path to partition i (nil for home and for
// co-located partitions). Every edge's CC shares the fleet's manager,
// partitions and counters.
func (f *Fleet) CC(home int, links []transport.Path) *twopc.ShardedCC {
	cc := &twopc.ShardedCC{Clk: f.clk, M: f.Mgr, Home: home, Parts: f.Parts, Links: links,
		Partitioner: f.DB.Partitioner, Map: f.DB.Map, Protocol: f.p, Stats: f.Stats}
	f.observeCC(cc)
	return cc
}

// Journal sends retraction restores and aborted sections' undo through the
// journaling store, so a durable fleet's recovered partition agrees with
// its live store. Call it once the partitions log.
func (f *Fleet) Journal() {
	f.Mgr.RestoreDB = twopc.JournaledShardedStore{ShardedStore: f.DB}
}

// Observe binds the fleet to o: the 2PC counters and the manager's
// retraction spans under the protocol's tag, and partition i's WAL appends
// under edges[i]. CCs made after it send their lock-wait and 2PC spans
// under their home's edge and the protocol.
func (f *Fleet) Observe(o *obs.Obs, edges []string) {
	tags := obs.Tags("protocol", f.p.String())
	f.Stats.Bind(o, tags)
	f.Mgr.Tracer, f.Mgr.TraceTags = o.Tracer(), tags
	for i, part := range f.Parts {
		part.WALAppends = o.Counter(obs.MetricWALAppends, obs.Tags("edge", edges[i]))
	}
	f.obs, f.edges = o, edges
}

// observeCC sends cc's spans to the fleet's Obs, once it has one.
func (f *Fleet) observeCC(cc *twopc.ShardedCC) {
	if f.obs != nil {
		cc.Obs, cc.Tags = f.obs, obs.Tags("edge", f.edges[cc.Home], "protocol", f.p.String())
	}
}
