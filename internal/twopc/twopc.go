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
	"fmt"
	"sync"

	"croesus/internal/lock"
	"croesus/internal/obs"
	"croesus/internal/store"
	"croesus/internal/transport"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/wal"
)

// ErrAborted is returned when a participant votes no during prepare.
var ErrAborted = errors.New("twopc: aborted")

// ErrCrashed reports that an atomic-commitment round could not complete
// because an involved edge fail-stopped (or its link partitioned) — the
// section's commit did not happen and its eager writes must be undone.
var ErrCrashed = errors.New("twopc: edge crashed mid-commit")

// Partition is one edge node's shard of the database.
type Partition struct {
	ID    int
	Store *store.Store
	Locks *lock.Manager
	// Link is the coordinator→partition network path. The coordinator's
	// own partition uses a nil Link (local calls).
	Link transport.Path
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

	mu       sync.Mutex
	staged   map[txn.ID][]stagedWrite
	prepared map[txn.ID]bool
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
	// FailPrepares makes the next n prepare requests vote no —
	// failure injection for tests and benches.
	FailPrepares int
}

type stagedWrite struct {
	key string
	val store.Value
	del bool
}

// NewPartition returns an empty partition.
func NewPartition(id int, clk vclock.Clock, link transport.Path) *Partition {
	return &Partition{
		ID:       id,
		Store:    store.New(),
		Locks:    lock.NewManager(clk),
		Link:     link,
		staged:   make(map[txn.ID][]stagedWrite),
		prepared: make(map[txn.ID]bool),
	}
}

// prepare stages the writes and votes.
func (p *Partition) prepare(id txn.ID, writes []stagedWrite) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.FailPrepares > 0 {
		p.FailPrepares--
		return false
	}
	p.staged[id] = writes
	p.prepared[id] = true
	return true
}

// commit applies the staged writes.
func (p *Partition) commit(id txn.ID) {
	p.mu.Lock()
	writes := p.staged[id]
	delete(p.staged, id)
	delete(p.prepared, id)
	p.mu.Unlock()
	for _, w := range writes {
		if w.del {
			p.Store.Delete(w.key)
		} else {
			p.Store.Put(w.key, w.val)
		}
	}
}

// abort drops the staged writes.
func (p *Partition) abort(id txn.ID) {
	p.mu.Lock()
	delete(p.staged, id)
	delete(p.prepared, id)
	p.mu.Unlock()
}

// Prepared reports whether the partition holds a staged state for id (for
// tests).
func (p *Partition) Prepared(id txn.ID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prepared[id]
}

// Protocol selects which multi-stage protocol governs lock scope, matching
// txn.MSSR and txn.MSIA semantics.
type Protocol int

// Protocols.
const (
	MSSR Protocol = iota
	MSIA
)

func (p Protocol) String() string {
	if p == MSSR {
		return "MS-SR"
	}
	return "MS-IA"
}

// DistTxn is a distributed multi-stage transaction.
type DistTxn struct {
	Name      string
	InitialRW txn.RWSet
	FinalRW   txn.RWSet
	Initial   func(c *Ctx) error
	Final     func(c *Ctx) error
}

// Coordinator drives distributed transactions over a set of partitions.
// The coordinator is co-located with partition 0 (its local shard).
type Coordinator struct {
	Clk         vclock.Clock
	Parts       []*Partition
	Partitioner func(key string) int
	Protocol    Protocol

	mu     sync.Mutex
	nextID txn.ID
	stats  Stats
}

// Stats counts protocol events.
type Stats struct {
	Commits     int64
	Aborts      int64
	PrepareRPCs int64
	CommitRPCs  int64
	AbortRPCs   int64
	LockRPCs    int64
	TwoPCRounds int64
}

// HashPartitioner returns the default key→partition mapping: FNV-1a over
// the key, modulo n. Both the standalone coordinator and the cluster's
// placement-aware partitioner (for untagged keys) share it, so a key
// routes identically everywhere.
func HashPartitioner(n int) func(key string) int {
	return func(key string) int {
		h := uint32(2166136261)
		for i := 0; i < len(key); i++ {
			h = (h ^ uint32(key[i])) * 16777619
		}
		return int(h % uint32(n))
	}
}

// NewCoordinator returns a coordinator over the partitions with a
// hash-based default partitioner.
func NewCoordinator(clk vclock.Clock, parts []*Partition, proto Protocol) *Coordinator {
	return &Coordinator{Clk: clk, Parts: parts, Protocol: proto, Partitioner: HashPartitioner(len(parts))}
}

// Stats returns a snapshot of the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Ctx is the distributed section execution context: reads go to the owning
// partition (paying the network hop), writes are buffered until 2PC. The
// write buffer is keyed by the partition's index in Coordinator.Parts (the
// partitioner's output), never by Partition.ID — the two need not agree.
type Ctx struct {
	co     *Coordinator
	id     txn.ID
	writes map[int][]stagedWrite // per partition slice index
	reads  int
}

// Get reads key from its owning partition.
func (c *Ctx) Get(key string) (store.Value, bool) {
	pi := c.co.Partitioner(key)
	p := c.co.Parts[pi]
	c.co.hop(p) // request
	// Buffered writes are visible to the transaction's own reads.
	for i := len(c.writes[pi]) - 1; i >= 0; i-- {
		if w := c.writes[pi][i]; w.key == key {
			if w.del {
				return nil, false
			}
			return w.val.Clone(), true
		}
	}
	v, ok := p.Store.Get(key)
	c.co.hop(p) // response
	c.reads++
	return v, ok
}

// Put buffers a write to key's owning partition.
func (c *Ctx) Put(key string, v store.Value) {
	pid := c.co.Partitioner(key)
	c.writes[pid] = append(c.writes[pid], stagedWrite{key: key, val: v.Clone()})
}

// Delete buffers a delete.
func (c *Ctx) Delete(key string) {
	pid := c.co.Partitioner(key)
	c.writes[pid] = append(c.writes[pid], stagedWrite{key: key, del: true})
}

// hop pays one one-way network delay to a remote partition.
func (c *Coordinator) hop(p *Partition) {
	if p.Link == nil {
		return
	}
	p.Link.Send(c.Clk, 256)
}

// partitionRequests groups lock requests by owning partition.
func (c *Coordinator) partitionRequests(reqs []lock.Request) map[int][]lock.Request {
	out := map[int][]lock.Request{}
	for _, r := range reqs {
		pid := c.Partitioner(r.Key)
		out[pid] = append(out[pid], r)
	}
	return out
}

// acquireLocks sends lock requests to every involved partition. Partitions
// are visited in ID order (global ordering prevents distributed deadlock).
func (c *Coordinator) acquireLocks(id txn.ID, reqs []lock.Request) {
	byPart := c.partitionRequests(reqs)
	for pid := 0; pid < len(c.Parts); pid++ {
		rs, ok := byPart[pid]
		if !ok {
			continue
		}
		p := c.Parts[pid]
		c.hop(p)
		p.Locks.AcquireAll(lock.Owner(id), rs)
		c.hop(p)
		c.mu.Lock()
		c.stats.LockRPCs++
		c.mu.Unlock()
	}
}

func (c *Coordinator) releaseLocks(id txn.ID, reqs []lock.Request) {
	for pid, rs := range c.partitionRequests(reqs) {
		p := c.Parts[pid]
		c.hop(p)
		p.Locks.ReleaseAll(lock.Owner(id), rs)
	}
}

// twoPhaseCommit runs prepare/commit over the partitions with buffered
// writes (plus the coordinator's own shard). Returns ErrAborted when any
// participant votes no; staged state is dropped everywhere. The counters
// reflect only work actually performed: a transaction with an empty write
// set commits without any round, RPC, or hop, and abort messages go only to
// participants that voted yes (a no-voter staged nothing and has nothing to
// drop).
func (c *Coordinator) twoPhaseCommit(id txn.ID, writes map[int][]stagedWrite) error {
	if len(writes) == 0 {
		return nil
	}
	c.mu.Lock()
	c.stats.TwoPCRounds++
	c.mu.Unlock()
	// Phase 1: prepare. staged tracks the yes-voters — the only partitions
	// holding state that a later abort would have to drop.
	staged := make([]int, 0, len(writes))
	allYes := true
	for pid := 0; pid < len(c.Parts); pid++ {
		ws, ok := writes[pid]
		if !ok {
			continue
		}
		p := c.Parts[pid]
		c.hop(p)
		ok = p.prepare(id, ws)
		c.hop(p)
		c.mu.Lock()
		c.stats.PrepareRPCs++
		c.mu.Unlock()
		if !ok {
			allYes = false
			break
		}
		staged = append(staged, pid)
	}
	// Phase 2: commit or abort.
	if !allYes {
		for _, pid := range staged {
			p := c.Parts[pid]
			c.hop(p)
			p.abort(id)
			c.mu.Lock()
			c.stats.AbortRPCs++
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.stats.Aborts++
		c.mu.Unlock()
		return ErrAborted
	}
	for _, pid := range staged {
		p := c.Parts[pid]
		c.hop(p)
		p.commit(id)
		c.mu.Lock()
		c.stats.CommitRPCs++
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.stats.Commits++
	c.mu.Unlock()
	return nil
}

// Run executes a distributed multi-stage transaction to completion:
// initial section, then final section, with lock scope and atomic
// commitment per the configured protocol. The final section runs
// immediately after the initial commit (callers model the cloud round trip
// with clock sleeps between sections via RunInitial/RunFinal).
func (c *Coordinator) Run(t *DistTxn) error {
	h, err := c.RunInitial(t)
	if err != nil {
		return err
	}
	return c.RunFinal(h)
}

// Handle tracks a distributed transaction between its sections.
type Handle struct {
	t       *DistTxn
	id      txn.ID
	allReqs []lock.Request
	// stagedInitial holds MS-SR initial-section writes until the final
	// commit's 2PC; the locks held across both sections make the
	// deferred visibility unobservable to other transactions.
	stagedInitial map[int][]stagedWrite
}

// RunInitial executes the initial section. For MS-SR it acquires both
// sections' locks (Algorithm 1) and defers atomic commitment to the final
// commit; for MS-IA it runs a full 2PC at the initial commit and releases
// the initial locks.
func (c *Coordinator) RunInitial(t *DistTxn) (*Handle, error) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	h := &Handle{t: t, id: id}
	ctx := &Ctx{co: c, id: id, writes: map[int][]stagedWrite{}}
	switch c.Protocol {
	case MSSR:
		h.allReqs = lock.Normalize(append(t.InitialRW.Requests(), t.FinalRW.Requests()...))
		c.acquireLocks(id, h.allReqs)
		if err := t.Initial(ctx); err != nil {
			c.releaseLocks(id, h.allReqs)
			return nil, err
		}
		// Writes stay staged at the coordinator until the final 2PC: the
		// locks guarantee nobody observes the gap. Stage them on the
		// handle by merging into the final section's context later.
		h.stagedInitial = ctx.writes
	case MSIA:
		reqs := t.InitialRW.Requests()
		c.acquireLocks(id, reqs)
		err := t.Initial(ctx)
		if err == nil {
			err = c.twoPhaseCommit(id, ctx.writes)
		}
		c.releaseLocks(id, reqs)
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// RunFinal executes the final section and the concluding 2PC, releasing
// every remaining lock.
func (c *Coordinator) RunFinal(h *Handle) error {
	ctx := &Ctx{co: c, id: h.id, writes: map[int][]stagedWrite{}}
	switch c.Protocol {
	case MSSR:
		// Initial-section writes commit atomically with the final's.
		for pid, ws := range h.stagedInitial {
			ctx.writes[pid] = append(ctx.writes[pid], ws...)
		}
		err := h.t.Final(ctx)
		if err == nil {
			err = c.twoPhaseCommit(h.id, ctx.writes)
		}
		c.releaseLocks(h.id, h.allReqs)
		return err
	default:
		reqs := h.t.FinalRW.Requests()
		c.acquireLocks(h.id, reqs)
		err := h.t.Final(ctx)
		if err == nil {
			err = c.twoPhaseCommit(h.id, ctx.writes)
		}
		c.releaseLocks(h.id, reqs)
		return err
	}
}

func (h *Handle) String() string {
	return fmt.Sprintf("dist-txn %d (%s)", h.id, h.t.Name)
}
