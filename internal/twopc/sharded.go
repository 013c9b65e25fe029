// Sharded fleet keyspace: the §4.5 multi-partition machinery wired into the
// pipeline-facing txn.CC seam. Each edge node of a cluster hosts one
// Partition of a single fleet-wide database; a per-edge ShardedCC routes
// every triggered transaction's declared RW-set through the owning
// partitions — local keys take no hop and no 2PC round, cross-edge
// keys acquire remote locks over the inter-edge links in global partition
// order and commit with a two-phase commit at the section boundaries the
// multi-stage protocol dictates (MS-IA at both commits, MS-SR once at the
// final commit). Undo logging, dependency tracking, and retraction cascades
// live in the one fleet-wide txn.Manager, so a retraction started on one
// edge undoes dependent writes on every other edge it reached. A standalone
// edge is a fleet of one link-less partition (internal/node), so ShardedCC
// is every edge's concurrency control, for both protocols.
//
// When the fleet is durable (partitions carry WALs) and a FaultOracle is
// installed, the protocol additionally survives fail-stop crashes: every
// section commit is logged before it counts, prepare votes and commit
// decisions are durable, a transaction that loses a partition mid-flight
// aborts or retracts instead of committing on lost state, and a recovering
// edge resolves its in-doubt transactions against the coordinator's log
// (presumed abort). internal/faults drives the crashes and the recovery.
package twopc

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"croesus/internal/lock"
	"croesus/internal/obs"
	"croesus/internal/store"
	"croesus/internal/transport"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/workload"
)

// NewPartitionOver returns a partition wrapping an existing store and lock
// manager — the cluster runtime shards the fleet keyspace over the stores
// its edge nodes already own.
func NewPartitionOver(id int, st *store.Store, locks *lock.Manager) *Partition {
	return &Partition{ID: id, Store: st, Locks: locks}
}

// ShardedStore routes key-value operations to the partition owning each key.
// It implements txn.Backend, which is what lets the fleet share one
// txn.Manager (and therefore one undo log and one dependency index) over
// stores that physically live on different edge nodes. The router itself
// charges no network time: ShardedCC accounts the cross-edge cost at lock
// acquisition (the lock-grant reply carries the remote reads) and at the
// prepare/commit rounds (prepare messages carry the remote writes), which is
// how a real coordinator batches data movement per partition rather than
// per operation.
type ShardedStore struct {
	Parts       []*Partition
	Partitioner func(key string) int
	// Map and Clk, when set, gate writes behind the shard map's cutover
	// barrier: a write to a shard mid-migration parks until the rebind so
	// it lands under the new route instead of racing the copy. The
	// Partitioner of a mapped fleet is Map.Lookup.
	Map *ShardMap
	Clk vclock.Clock
}

// route resolves a key's owning partition, waiting out a mid-cutover shard
// first so the write cannot land on the losing side of a migration.
func (s *ShardedStore) route(key string) int {
	if s.Map != nil && s.Clk != nil {
		s.Map.Barrier(s.Clk, key)
	}
	return s.Partitioner(key)
}

// Get implements txn.Backend.
func (s *ShardedStore) Get(key string) (store.Value, bool) {
	return s.Parts[s.Partitioner(key)].Store.Get(key)
}

// Peek implements txn.Backend.
func (s *ShardedStore) Peek(key string) (store.Value, bool) {
	return s.Parts[s.Partitioner(key)].Store.Peek(key)
}

// Put implements txn.Backend.
func (s *ShardedStore) Put(key string, v store.Value) uint64 {
	return s.Parts[s.route(key)].Store.Put(key, v)
}

// Delete implements txn.Backend.
func (s *ShardedStore) Delete(key string) bool {
	return s.Parts[s.route(key)].Store.Delete(key)
}

// TwoPCPoint names a scripted instant inside an atomic-commitment round —
// the places an armed 2PC crash trigger can fail-stop an edge
// (internal/faults).
type TwoPCPoint int

// The scripted 2PC points.
const (
	// PointParticipantPrepared: a participant just voted yes (its staged
	// block is durable) and fail-stops before the decision reaches it.
	PointParticipantPrepared TwoPCPoint = iota
	// PointAfterPrepare: the coordinator collected every vote and
	// fail-stops before its decision is durable — participants are in
	// doubt and resolve by presumed abort.
	PointAfterPrepare
	// PointAfterDecision: the coordinator logged its commit decision and
	// fail-stops before delivering phase 2 — the transaction is committed,
	// and participants learn it from the coordinator's log.
	PointAfterDecision
)

func (p TwoPCPoint) String() string {
	switch p {
	case PointParticipantPrepared:
		return "participant-prepared"
	case PointAfterPrepare:
		return "after-prepare"
	default:
		return "after-decision"
	}
}

// FaultOracle is the seam the fault injector (internal/faults) plugs into
// the protocol: partition liveness, crash epochs (a changed epoch means the
// edge crashed and lost its volatile state — including lock grants — since
// the caller last talked to it), scripted 2PC-point crashes, and fault
// accounting. A nil oracle means a fault-free fleet.
type FaultOracle interface {
	// Down reports whether partition pi's edge is currently fail-stopped.
	Down(pi int) bool
	// Epoch returns pi's crash epoch (incremented at every crash).
	Epoch(pi int) int
	// At2PCPoint fires a scripted 2PC instant: coord is the coordinating
	// partition, part the acting one. It returns false when the acting
	// edge fail-stopped at this point and the caller cannot proceed there.
	At2PCPoint(coord, part int, point TwoPCPoint) bool
	// TxnFault records a transaction aborted or retracted by a fault.
	TxnFault()
}

// DistCounters counts fleet-wide distributed-commit events.
type DistCounters struct {
	// LocalCommits counts section commits whose write set stayed on the
	// executing edge's own partition — no 2PC, no network.
	LocalCommits int64
	// CrossEdgeCommits counts section commits whose write set spanned more
	// than one partition and therefore ran a 2PC round.
	CrossEdgeCommits int64
	// RemoteCommits counts single-partition commits whose one partition
	// was remote (one commit message, no 2PC round).
	RemoteCommits int64
	TwoPCRounds   int64
	PrepareRPCs   int64
	CommitRPCs    int64
	LockRPCs      int64
	Aborts        int64
	// MapRetries counts transactions that woke from lock acquisition to
	// find the shard map had moved a shard under them (a migration
	// completed while they waited) and re-planned on the new map.
	MapRetries int64
}

// DistStats is the concurrency-safe counter block shared by every edge's
// ShardedCC in a fleet. It stays the source of truth for the run report;
// Bind additionally mirrors every increment into a metrics registry so
// live scrapes see the same numbers without a second counting path.
type DistStats struct {
	mu     sync.Mutex
	c      DistCounters
	mirror *distMirror
}

// Snapshot returns the current counters.
func (s *DistStats) Snapshot() DistCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

func (s *DistStats) add(f func(*DistCounters)) {
	s.mu.Lock()
	before := s.c
	f(&s.c)
	after := s.c
	m := s.mirror
	s.mu.Unlock()
	if m != nil {
		m.apply(before, after)
	}
}

// distMirror holds the registry handles DistStats feeds. add is the
// single mutation point for DistCounters, so mirroring the before/after
// delta there keeps registry and report byte-for-byte consistent.
type distMirror struct {
	local, cross, remote       *obs.Counter
	rounds, prepares, commits  *obs.Counter
	lockRPCs, aborts, mapRetry *obs.Counter
}

func (m *distMirror) apply(before, after DistCounters) {
	m.local.Add(after.LocalCommits - before.LocalCommits)
	m.cross.Add(after.CrossEdgeCommits - before.CrossEdgeCommits)
	m.remote.Add(after.RemoteCommits - before.RemoteCommits)
	m.rounds.Add(after.TwoPCRounds - before.TwoPCRounds)
	m.prepares.Add(after.PrepareRPCs - before.PrepareRPCs)
	m.commits.Add(after.CommitRPCs - before.CommitRPCs)
	m.lockRPCs.Add(after.LockRPCs - before.LockRPCs)
	m.aborts.Add(after.Aborts - before.Aborts)
	m.mapRetry.Add(after.MapRetries - before.MapRetries)
}

// Bind mirrors every future counter increment into o's registry under
// the given canonical tag string. Nil-safe (no-op when o is nil).
func (s *DistStats) Bind(o *obs.Obs, tags string) {
	if s == nil || o == nil {
		return
	}
	m := &distMirror{
		local:    o.Counter(obs.MetricCommitsLocal, tags),
		cross:    o.Counter(obs.MetricCommitsCross, tags),
		remote:   o.Counter(obs.MetricCommitsRemote, tags),
		rounds:   o.Counter(obs.MetricTwoPCRounds, tags),
		prepares: o.Counter(obs.MetricPrepareRPCs, tags),
		commits:  o.Counter(obs.MetricCommitRPCs, tags),
		lockRPCs: o.Counter(obs.MetricLockRPCs, tags),
		aborts:   o.Counter(obs.MetricTxnAborts, tags),
		mapRetry: o.Counter(obs.MetricMapRetries, tags),
	}
	s.mu.Lock()
	s.mirror = m
	s.mu.Unlock()
}

// lockMsgBytes sizes a lock / prepare / commit protocol message.
const lockMsgBytes = 256

// ShardedCC implements txn.CC over a sharded fleet keyspace. One instance
// serves one edge node (its Home partition is lock- and hop-free); all
// instances of a fleet share the Parts slice, the Manager, and the Stats
// block. Each acquisition plans one route (see route): the transaction's
// requests, routed once and sorted by (partition, key). Locks are taken by
// walking it, partition by partition in ascending index with keys ordered
// inside each partition, so concurrent transactions from any number of
// edges follow one global acquisition order and cannot deadlock — the
// distributed generalization of the ordered acquisition the declared
// RW-sets ("get_rwsets") enable in Algorithm 1/2. The commit round and the
// release walk the same route.
type ShardedCC struct {
	Clk vclock.Clock
	// M is the fleet-wide manager; M.DB must be the fleet's ShardedStore.
	M    *txn.Manager
	Home int
	// Parts lists the fleet's partitions; Links[i] is this edge's one-way
	// path to the edge hosting Parts[i] (nil for Home and for co-located
	// partitions).
	Parts       []*Partition
	Links       []transport.Path
	Partitioner func(key string) int
	// Map, when set, routes keys through the fleet's mutable shard map
	// instead of the static Partitioner, and enrolls every transaction in
	// the migration protocol: shared shard-intent locks alongside the
	// data locks, and a post-acquisition route re-check that retries the
	// transaction on the new map when a migration moved a shard it
	// touches while it waited.
	Map      *ShardMap
	Protocol Protocol
	// Policy is how MS-SR acquires: wait-die over every section's locks up
	// front (txn.Wait, the default), or Algorithm 1's no-wait
	// try-acquisition, which aborts on any conflict (txn.NoWait). MS-IA
	// ignores it.
	Policy txn.Policy
	Stats  *DistStats
	// Faults, when set, injects scripted failures and supplies the
	// liveness/epoch oracle the protocol consults before trusting a
	// partition (nil: fault-free fleet).
	Faults FaultOracle
	// Obs, when set, records lock-wait and 2PC spans for this edge's
	// transactions under the Tags tag string; per-instance timings are
	// additionally accumulated on the instance for the frame breakdown.
	Obs  *obs.Obs
	Tags string

	mu sync.Mutex
	// held is what MS-SR remembers between the initial and the final
	// commit: the route its locks were granted under. The final commit and
	// the release target those partitions, never a re-derived live route,
	// and a batch whose partition's crash epoch changed since planning
	// lost its lock table (and the eager initial writes) with the edge.
	held map[txn.ID]route
}

// route is a transaction's route snapshot, planned once per acquisition:
// its lock requests plus, on a mapped fleet, the shared shard intents, each
// routed to its owning partition once, merged by lock.NormalizeInPlace and
// grouped by partition. It holds one batch per partition, in ascending
// partition order; the batches' requests are sub-slices of one backing
// array, in key order — already the order lock.Manager takes them. Nothing
// downstream re-derives a key's partition from the live map: acquisition,
// the stale-route check, the commit round and the release all walk this.
type route []batch

// batch is one partition's share of a route.
type batch struct {
	part int
	// epoch is the partition's crash epoch at planning time (0 without a
	// fault oracle): a different epoch later means the edge crashed and
	// its lock table — and any eager writes under it — died with it.
	epoch int
	reqs  []lock.Request
}

func exclusive(r lock.Request) bool { return r.Mode == lock.Exclusive }

// has reports whether any batch of rt requests key.
func (rt route) has(key string) bool {
	for _, b := range rt {
		for _, r := range b.reqs {
			if r.Key == key {
				return true
			}
		}
	}
	return false
}

// merge returns rt with more's batches added; a partition in both routes
// keeps rt's (the earlier) crash epoch and the union of their requests.
func (rt route) merge(more route) route {
	out := slices.Clone(rt)
	for _, b := range more {
		i, ok := slices.BinarySearchFunc(out, b.part, func(x batch, part int) int { return x.part - part })
		if ok {
			out[i].reqs = lock.NormalizeInPlace(slices.Concat(out[i].reqs, b.reqs))
		} else {
			out = slices.Insert(out, i, b)
		}
	}
	return out
}

// maxMapRetries bounds how many times one transaction re-plans after waking
// into a moved shard map before giving up with a plain abort.
const maxMapRetries = 4

// hopTo pays one one-way message delay to the edge hosting partition pi.
func (c *ShardedCC) hopTo(pi int) {
	if l := c.Links[pi]; l != nil {
		l.Send(c.Clk, lockMsgBytes)
	}
}

func (c *ShardedCC) partDown(pi int) bool { return c.Faults != nil && c.Faults.Down(pi) }

func (c *ShardedCC) linkDown(pi int) bool {
	return c.Links[pi] != nil && c.Links[pi].IsDown()
}

// reachable reports whether partition pi can currently serve this edge:
// its edge is up and the peer link is not partitioned.
func (c *ShardedCC) reachable(pi int) bool { return !c.partDown(pi) && !c.linkDown(pi) }

// epochsBroken reports whether any of the route's partitions crashed (or
// is down) since the route was planned — its locks and eager writes are
// gone.
func (c *ShardedCC) epochsBroken(rt route) bool {
	if c.Faults == nil {
		return false
	}
	for _, b := range rt {
		if c.Faults.Down(b.part) || c.Faults.Epoch(b.part) != b.epoch {
			return true
		}
	}
	return false
}

// at2PC fires a scripted 2PC point; true means the acting edge survived.
func (c *ShardedCC) at2PC(part int, point TwoPCPoint) bool {
	if c.Faults == nil {
		return true
	}
	return c.Faults.At2PCPoint(c.Home, part, point)
}

func (c *ShardedCC) noteFault() {
	if c.Faults != nil {
		c.Faults.TxnFault()
	}
}

// routeKey resolves a key's owning partition under the live map (or the
// static partitioner of an unmapped fleet).
func (c *ShardedCC) routeKey(key string) int {
	if c.Map != nil {
		return c.Map.Lookup(key)
	}
	return c.Partitioner(key)
}

func (c *ShardedCC) mapEpoch() int64 {
	if c.Map == nil {
		return 0
	}
	return c.Map.Epoch()
}

// plan routes reqs — plus, on a mapped fleet, the shared shard-intent
// request of every logical shard among them, the locks that serialize this
// transaction against a migration of any shard it touches — into a route
// under the current map, snapshotting each partition's crash epoch. The
// requests are merged by lock.NormalizeInPlace, then grouped by ascending
// partition, which keeps each batch in key order. The route's batches are
// appended to buf[:0], so a caller whose route does not outlive it can keep
// them on its stack. reqs is only read: a template's cached requests are
// never appended to. held is a route whose locks the transaction already
// holds: its shard intents are not requested again (a second grant of a
// held lock would be released with the new batch).
func (c *ShardedCC) plan(reqs []lock.Request, held, buf route) route {
	if b, ok := c.onePart(reqs); ok {
		return append(buf[:0], b)
	}
	var reqBuf [16]lock.Request
	all := reqBuf[:0]
	prev := -1
	for _, r := range reqs {
		all = append(all, r)
		if c.Map == nil {
			continue
		}
		// Normalized requests keep a shard's keys adjacent ("s1/" sorts
		// apart from "s12/"), so this skips most repeats; the merge below
		// drops any that remain.
		if s, ok := workload.ShardOf(r.Key); ok && s != prev {
			prev = s
			if k := c.Map.intentKey(s); !held.has(k) {
				all = append(all, lock.Request{Key: k, Mode: lock.Shared})
			}
		}
	}
	all = lock.NormalizeInPlace(all)
	var partBuf [16]int
	parts := partBuf[:0]
	for _, r := range all {
		parts = append(parts, c.routeKey(r.Key))
	}
	// Group by partition: each pass takes the smallest partition above
	// the last one, in key order.
	grouped := make([]lock.Request, 0, len(all))
	rt := buf[:0]
	for last := -1; len(grouped) < len(all); {
		next := -1
		for _, p := range parts {
			if p > last && (next < 0 || p < next) {
				next = p
			}
		}
		start := len(grouped)
		for i, p := range parts {
			if p == next {
				grouped = append(grouped, all[i])
			}
		}
		b := batch{part: next, reqs: grouped[start:len(grouped):len(grouped)]}
		if c.Faults != nil {
			b.epoch = c.Faults.Epoch(next)
		}
		rt = append(rt, b)
		last = next
	}
	return rt
}

// onePart plans the common case without copying: an unmapped fleet (no
// intents to add) whose already-normalized requests — sorted, one per key,
// as txn.RWSet.Requests returns them — all live on one partition. The
// batch is those requests themselves, capped so nothing can append into
// them.
func (c *ShardedCC) onePart(reqs []lock.Request) (batch, bool) {
	if c.Map != nil || len(reqs) == 0 {
		return batch{}, false
	}
	part := c.Partitioner(reqs[0].Key)
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Key <= reqs[i-1].Key || c.Partitioner(reqs[i].Key) != part {
			return batch{}, false
		}
	}
	b := batch{part: part, reqs: reqs[:len(reqs):len(reqs)]}
	if c.Faults != nil {
		b.epoch = c.Faults.Epoch(part)
	}
	return b, true
}

// routeStale reports whether a migration moved any of the route's keys
// since epoch — the locks just acquired may sit on partitions that no
// longer own the data, so the caller must release and re-plan.
func (c *ShardedCC) routeStale(epoch int64, rt route) bool {
	if c.Map == nil || c.Map.Epoch() == epoch {
		return false
	}
	for _, b := range rt {
		for _, r := range b.reqs {
			if c.Map.Lookup(r.Key) != b.part {
				return true
			}
		}
	}
	return false
}

// acquire takes the route batch by batch, in ascending partition order
// (remote ones over the edge link). The lock-grant reply doubles as the
// remote read fetch, so section bodies read remote keys without further
// hops. On failure it releases the batches already taken and reports
// false; fault says the failure was an unreachable partition (its edge
// crashed or the link is partitioned).
//
// MS-SR acquires under wait-die: because it holds every lock from the
// initial commit across the cloud round trip to the final commit (and a
// frame triggers its transactions one after another on one goroutine),
// plain blocking acquisition could wait on a lock the caller itself will
// only release later. Wait-die breaks that: at each partition the
// transaction may wait only while older than every holder, otherwise it
// dies (ok and fault both false). Fleet-wide monotonic IDs make the age
// comparison valid across edges. Under the no-wait policy MS-SR never
// waits: a conflict on any partition fails the acquisition the same way.
func (c *ShardedCC) acquire(owner lock.Owner, rt route) (ok, fault bool) {
	for i, b := range rt {
		if !c.reachable(b.part) {
			c.release(owner, rt[:i])
			return false, true
		}
		locks := c.Parts[b.part].Locks
		c.hopTo(b.part)
		granted := true
		switch {
		case c.Protocol == MSIA:
			locks.AcquireAll(owner, b.reqs)
		case c.Policy == txn.NoWait:
			granted = locks.TryAcquireAll(owner, b.reqs)
		default:
			granted = locks.AcquireAllWaitDie(owner, b.reqs)
		}
		c.hopTo(b.part)
		if c.Links[b.part] != nil {
			c.Stats.add(func(d *DistCounters) { d.LockRPCs++ })
		}
		if !granted {
			c.release(owner, rt[:i])
			return false, false
		}
	}
	return true, false
}

// release gives back every batch of rt, in route order.
func (c *ShardedCC) release(owner lock.Owner, rt route) {
	for _, b := range rt {
		c.hopTo(b.part)
		c.Parts[b.part].Locks.ReleaseAll(owner, b.reqs)
	}
}

// commitSection runs the atomic-commitment round for one section commit
// over the partitions its write set touched. A write set confined to one
// partition needs no 2PC: the commit is local (free) or a single remote
// commit message. A multi-partition write set pays a prepare/commit round
// over every involved partition; the fan-out is parallel — each phase
// charges every involved link and sleeps once for the slowest round trip,
// not the sum of sequential visits. The writes themselves were applied
// through the fleet ShardedStore as the section executed (locks make the
// early application unobservable), so the round here is the protocol's
// message cost, the WAL logging that makes the commit durable, and the
// scripted 2PC crash points. ErrCrashed means the commit did not
// happen — the caller must undo the section's eager writes. round, the
// index of the section being committed, disambiguates the rounds one
// transaction runs (one per section boundary under MS-IA), so each round's
// WAL markers, staged blocks, and decisions stand alone. rt is the route the section's locks were
// granted under, and its exclusive requests are the write set: the commit
// must land where the locks (and the eager writes) are, even if the live
// map has since moved an *unrelated* shard — the held shard intents
// guarantee the transaction's own shards cannot have moved.
func (c *ShardedCC) commitSection(id txn.ID, round uint8, rt route) error {
	cr := CommitRound{ID: id, Round: round}
	var buf [8]batch
	involved := buf[:0]
	for _, b := range rt {
		if slices.ContainsFunc(b.reqs, exclusive) {
			involved = append(involved, b)
		}
	}
	if len(involved) == 0 {
		return nil // read-only section: nothing to commit
	}
	// Every involved partition must still be the one we locked at: a
	// crashed (or unreachable) partition lost our locks and eager writes.
	for _, b := range involved {
		if !c.reachable(b.part) {
			return ErrCrashed
		}
		if c.Faults != nil && c.Faults.Epoch(b.part) != b.epoch {
			return ErrCrashed
		}
	}

	if len(involved) == 1 {
		pi := involved[0].part
		p := c.Parts[pi]
		if p.Durable() {
			p.LogLocalCommit(cr, involved[0].reqs)
		}
		if c.Links[pi] == nil {
			c.Stats.add(func(d *DistCounters) { d.LocalCommits++ })
			return nil
		}
		c.hopTo(pi)
		c.Stats.add(func(d *DistCounters) { d.RemoteCommits++; d.CommitRPCs++ })
		return nil
	}

	// The coordinator's own crash epoch, snapshotted before the round: if
	// the coordinating edge fail-stops and restarts while the prepare
	// round trip is in flight, this goroutine survives (it is simulation
	// machinery, not the edge process) but the round died with the edge —
	// the restart sweep presume-aborts its staged blocks, so continuing
	// to a commit decision here would split the round's outcome.
	homeEpoch := 0
	if c.Faults != nil {
		homeEpoch = c.Faults.Epoch(c.Home)
	}

	// Phase 1: parallel prepare fan-out. Each participant stages its share
	// durably (data records + prepare marker) and votes; the round costs
	// the slowest participant's round trip.
	maxRTT := chargeFanOut(c.Links, involved, 2, func() {
		c.Stats.add(func(d *DistCounters) { d.PrepareRPCs++ })
	})
	for _, b := range involved {
		p := c.Parts[b.part]
		if p.Durable() {
			p.StagePrepare(cr, c.Home, p.RedoRecords(cr, b.reqs))
		}
		// A scripted participant crash lands here: the yes vote is already
		// durable, so the round proceeds and the participant resolves the
		// transaction from the coordinator's log when it recovers.
		c.at2PC(b.part, PointParticipantPrepared)
	}
	c.Clk.Sleep(maxRTT)

	if c.Faults != nil && (c.Faults.Down(c.Home) || c.Faults.Epoch(c.Home) != homeEpoch) {
		// The coordinating edge crashed during the prepare round trip: no
		// decision was durable, so the round is dead (presumed abort) even
		// if the edge has already restarted.
		return ErrCrashed
	}
	if !c.at2PC(c.Home, PointAfterPrepare) {
		// The coordinator fail-stopped before its decision became durable:
		// the transaction did not commit; prepared participants are in
		// doubt and resolve by presumed abort.
		return ErrCrashed
	}
	home := c.Parts[c.Home]
	if home.Durable() {
		home.LogDecision(cr)
	}
	delivered := c.at2PC(c.Home, PointAfterDecision)

	// Phase 2: parallel commit delivery, skipped entirely when the
	// coordinator fail-stopped right after logging the decision (the
	// transaction is committed either way — that is what the durable
	// decision means; participants learn it from the coordinator's log).
	// Every participant it reaches logs the decision before this returns,
	// so the coordinator awaits only the ones it could not reach, and with
	// none it forgets the round here.
	if delivered {
		var waiting []int
		live := involved[:0] // filtered in place: involved is not read again
		for _, b := range involved {
			if !c.reachable(b.part) {
				waiting = append(waiting, b.part) // resolves from the coordinator's log at recovery
				continue
			}
			c.Parts[b.part].DeliverDecision(cr, true)
			live = append(live, b)
		}
		home.Await(cr, waiting)
		maxOne := chargeFanOut(c.Links, live, 1, func() {
			c.Stats.add(func(d *DistCounters) { d.CommitRPCs++ })
		})
		c.Clk.Sleep(maxOne)
	}
	c.Stats.add(func(d *DistCounters) { d.TwoPCRounds++; d.CrossEdgeCommits++ })
	return nil
}

// chargeFanOut charges msgs protocol messages on every listed batch's
// partition link and returns the slowest per-link total — the modeled cost
// of a parallel round, which the caller sleeps once. onEach runs once per
// listed batch (link or not), mirroring the per-RPC counters.
func chargeFanOut(links []transport.Path, bs []batch, msgs int, onEach func()) time.Duration {
	var max time.Duration
	for _, b := range bs {
		onEach()
		l := links[b.part]
		if l == nil {
			continue
		}
		var t time.Duration
		for i := 0; i < msgs; i++ {
			t += l.Charge(lockMsgBytes)
		}
		if t > max {
			max = t
		}
	}
	return max
}

// abortTxn retracts a transaction whose commit was interrupted by a fault:
// the section's eager writes (and any dependents') are undone through the
// manager's undo log, and the abort is counted.
func (c *ShardedCC) abortTxn(in *txn.Instance, reason string) {
	c.M.Retract(in, reason)
	c.Stats.add(func(d *DistCounters) { d.Aborts++ })
	c.noteFault()
}

// acquireRouted plans the transaction's route under the live map, acquires
// its locks, and re-plans when it wakes into a moved map (a migration
// completed while it waited): the stale locks are released and the
// acquisition retried on a new route, at most maxMapRetries times. Returns
// the route the locks were granted under and — on failure — whether the
// failure was a fault (unreachable partition) rather than a wait-die death
// or map churn.
func (c *ShardedCC) acquireRouted(owner lock.Owner, reqs []lock.Request, held, buf route) (rt route, ok, fault bool) {
	for attempt := 0; ; attempt++ {
		mapEpoch := c.mapEpoch()
		// Planning snapshots crash epochs BEFORE acquisition: a partition
		// that crashes and even recovers while this transaction waits for
		// a contended lock must still be detected (its lock table and any
		// state the wait spanned died with it), so the checks downstream
		// compare against the pre-wait world.
		rt = c.plan(reqs, held, buf)
		if ok, fault = c.acquire(owner, rt); !ok {
			return rt, false, fault
		}
		if !c.routeStale(mapEpoch, rt) {
			return rt, true, false
		}
		c.release(owner, rt)
		if attempt >= maxMapRetries {
			return rt, false, false
		}
		c.Stats.add(func(d *DistCounters) { d.MapRetries++ })
	}
}

// timedAcquire wraps acquireRouted, charging the wait to the instance's
// breakdown accumulator. A grant that waited emits a lock.wait span; a
// failed acquisition always emits a lock.abort span, even a zero-length
// one (a no-wait conflict or a wait-die death fails at once), so every
// abort the reports count has its span.
func (c *ShardedCC) timedAcquire(in *txn.Instance, owner lock.Owner, reqs []lock.Request, held, buf route) (rt route, ok, fault bool) {
	t0 := c.Clk.Now()
	rt, ok, fault = c.acquireRouted(owner, reqs, held, buf)
	t1 := c.Clk.Now()
	in.AddLockWait(t1 - t0)
	switch {
	case !ok:
		c.Obs.SpanCtx(in.Trace, obs.SpanLockAbort, c.Tags, t0, t1)
	case t1 > t0:
		c.Obs.SpanCtx(in.Trace, obs.SpanLockWait, c.Tags, t0, t1)
	}
	return rt, ok, fault
}

// timedCommit wraps commitSection, charging the round to the instance
// and emitting a twopc.commit span when the route left the home edge
// (purely local commits run no 2PC and get no span).
func (c *ShardedCC) timedCommit(in *txn.Instance, round uint8, rt route) error {
	t0 := c.Clk.Now()
	err := c.commitSection(in.ID, round, rt)
	t1 := c.Clk.Now()
	in.AddTwoPC(t1 - t0)
	if c.Obs != nil {
		for _, b := range rt {
			if b.part != c.Home {
				c.Obs.SpanCtx(in.Trace, obs.SpanTwoPC, c.Tags, t0, t1)
				break
			}
		}
	}
	return err
}

// RunInitial implements txn.CC. MS-IA locks and commits the initial
// section's own set; MS-SR acquires the union of every section's locks and
// holds them (writes commit atomically with the last section's). On a
// mapped fleet both also take the shard intents that fence migrations.
func (c *ShardedCC) RunInitial(in *txn.Instance) error { return c.RunSection(in, 0) }

// RunSection implements txn.CC over the fleet for one boundary of an
// N-section transaction: section 0 follows RunInitial's discipline, the
// last section RunFinal's, and middle sections commit one boundary each —
// under the section-0 locks for MS-SR (no 2PC until the last boundary), or
// with their own locks and their own atomic-commitment round (round = the
// section index, so each boundary's WAL markers stand alone) for MS-IA.
func (c *ShardedCC) RunSection(in *txn.Instance, k int) error {
	last := in.T.LastSection()
	if k == 0 {
		return c.runFirstSection(in, last)
	}
	if c.Protocol == MSSR {
		return c.runHeldSection(in, k, last)
	}
	return c.runOwnSection(in, k, last)
}

// runFirstSection is section 0 on the fleet: acquire (everything for
// MS-SR, the section's own set for MS-IA), execute, commit the boundary —
// deferred for an MS-SR transaction with later sections, immediate
// otherwise. Under the no-wait policy MS-SR follows Algorithm 1 literally:
// it takes the later sections' other keys after the body and before the
// commit, and any conflict aborts the transaction.
func (c *ShardedCC) runFirstSection(in *txn.Instance, last int) error {
	if s := in.State(); s != txn.StatePending {
		return fmt.Errorf("txn %d: RunInitial in state %s", in.ID, s)
	}
	owner := lock.Owner(in.ID)
	reqs, extra := c.firstRequests(in.T)
	var buf [4]batch
	rt, ok, fault := c.timedAcquire(in, owner, reqs, nil, buf[:0])
	if !ok {
		c.abortFirst(in, owner, nil, fault)
		return txn.ErrAborted
	}
	if c.epochsBroken(rt) {
		// A partition crashed while we waited for its locks: nothing was
		// written yet, so this is a plain abort, not a retraction.
		c.abortFirst(in, owner, rt, true)
		return txn.ErrAborted
	}

	if err := c.M.ExecSection(in, txn.StageInitial); err != nil {
		// The writes never reach a commit round (or the log): undo them
		// under the locks that hid them.
		c.abortFirst(in, owner, rt, false)
		return err
	}
	if len(extra) > 0 {
		// Algorithm 1: every later section's locks are taken before the
		// first commit, so the remaining sections are sure to commit.
		var xbuf [4]batch
		xrt, ok, fault := c.timedAcquire(in, owner, extra, rt, xbuf[:0])
		if !ok {
			c.abortFirst(in, owner, rt, fault)
			return txn.ErrAborted
		}
		rt = rt.merge(xrt)
	}

	if c.Protocol == MSSR && last > 0 {
		// Atomic commitment is deferred to the last commit; the held
		// locks make the earlier writes unobservable until then.
		held := slices.Clone(rt) // rt may live in this frame's buf
		c.mu.Lock()
		if c.held == nil {
			c.held = make(map[txn.ID]route)
		}
		c.held[in.ID] = held
		c.mu.Unlock()
		c.M.MarkSectionCommitted(in, 0)
		return nil
	}
	// The route's write set is the section's (single-section MS-SR: every
	// section's, which the one round covers).
	if err := c.timedCommit(in, RoundInitial, rt); err != nil {
		// The initial commit could not complete (a partition crashed
		// mid-round): undo the section's eager writes and abort.
		c.abortTxn(in, "initial commit interrupted by edge failure")
		c.release(owner, rt)
		return txn.ErrAborted
	}
	retracted := c.M.MarkSectionCommitted(in, 0)
	c.release(owner, rt)
	if retracted {
		return txn.ErrRetracted
	}
	return nil
}

// firstRequests returns the locks section 0 takes before its body and the
// ones it adds after it. MS-IA takes its own set; MS-SR every section's, at
// once under wait-die, or under no-wait section 0's keys first (each in the
// strongest mode any section takes it) and then every other key.
func (c *ShardedCC) firstRequests(t *txn.Txn) (first, extra []lock.Request) {
	if c.Protocol == MSIA {
		return t.SectionAt(0).RW.Requests(), nil
	}
	all := t.AllRequests()
	if c.Policy == txn.Wait {
		return all, nil
	}
	own := t.SectionAt(0).RW.Requests()
	for _, r := range all {
		if _, ok := slices.BinarySearchFunc(own, r.Key, byKey); ok {
			first = append(first, r)
		} else {
			extra = append(extra, r)
		}
	}
	return first, extra
}

func byKey(r lock.Request, key string) int { return strings.Compare(r.Key, key) }

// abortFirst aborts a transaction in its first section: its writes are
// undone under the locks rt holds, which are then released, and the abort
// is counted, as a fault when one caused it.
func (c *ShardedCC) abortFirst(in *txn.Instance, owner lock.Owner, rt route, fault bool) {
	c.M.MarkAborted(in)
	c.release(owner, rt)
	c.Stats.add(func(d *DistCounters) { d.Aborts++ })
	if fault {
		c.noteFault()
	}
}

// RunFinal implements txn.CC: final section, concluding atomic commitment,
// release of every remaining lock. A transaction that lost a partition to a
// crash between its commits is retracted — never half-committed — and the
// crash can leak no locks: MS-SR's held requests are always released here,
// whether the final commit succeeded, retracted, or died with an edge.
func (c *ShardedCC) RunFinal(in *txn.Instance) error { return c.RunSection(in, in.T.LastSection()) }

// runHeldSection is an MS-SR boundary after section 0: the body runs under
// the locks held since the first acquisition; only the last boundary runs
// the one atomic-commitment round (covering every section's writes) and
// surrenders the held state.
func (c *ShardedCC) runHeldSection(in *txn.Instance, k, last int) error {
	owner := lock.Owner(in.ID)
	switch s := in.State(); s {
	case txn.StateInitialCommitted:
		if err := in.CheckOrder(k); err != nil {
			return err
		}
	case txn.StateRetracted:
	default:
		return fmt.Errorf("txn %d: RunSection(%d) in state %s", in.ID, k, s)
	}
	c.mu.Lock()
	rt := c.held[in.ID]
	if k == last {
		delete(c.held, in.ID)
	}
	c.mu.Unlock()
	// drop surrenders the held state on a terminal exit before the last
	// boundary (a cascade or crash retracted the transaction) so the
	// remaining boundaries find nothing to release twice.
	drop := func() {
		if k != last {
			c.mu.Lock()
			delete(c.held, in.ID)
			c.mu.Unlock()
		}
		c.release(owner, rt)
	}
	if in.State() == txn.StateRetracted {
		drop() // a cascade got here first
		return txn.ErrRetracted
	}
	if c.epochsBroken(rt) {
		// A partition holding our locks crashed during the round trip:
		// the locks and the eager earlier writes there are gone. The only
		// safe outcome is retraction.
		c.abortTxn(in, "edge crashed while MS-SR locks were held")
		drop()
		return txn.ErrRetracted
	}
	// A body error does not stop the boundary from committing (the
	// multi-stage contract: an initially committed transaction commits
	// every later boundary), so the commit round runs and logs whatever the
	// sections wrote.
	err := c.M.ExecSection(in, txn.Stage(k))
	if k == last {
		// One 2PC covers every section's writes (Algorithm 1): the held
		// route was planned over all of them.
		if cerr := c.timedCommit(in, uint8(last), rt); cerr != nil {
			c.abortTxn(in, "final commit interrupted by edge failure")
			c.release(owner, rt)
			return txn.ErrRetracted
		}
	}
	retracted := c.M.MarkSectionCommitted(in, k)
	if k == last {
		c.release(owner, rt)
	} else if retracted {
		drop() // the body retracted its own transaction mid-graph
	}
	if err == nil && retracted {
		return txn.ErrRetracted
	}
	return err
}

// runOwnSection is an MS-IA boundary after section 0: acquire the
// section's own locks, execute, run the boundary's atomic-commitment round
// (round = section index), release. Any failure here breaks the
// multi-stage guarantee (first commit ⇒ every later commit), so the
// transaction — including every earlier boundary's visible effects — is
// retracted, cascades included.
func (c *ShardedCC) runOwnSection(in *txn.Instance, k, last int) error {
	owner := lock.Owner(in.ID)
	switch s := in.State(); s {
	case txn.StateInitialCommitted:
		if err := in.CheckOrder(k); err != nil {
			return err
		}
	case txn.StateRetracted:
		return txn.ErrRetracted
	default:
		return fmt.Errorf("txn %d: RunSection(%d) in state %s", in.ID, k, s)
	}
	secName := "the final section"
	if k != last {
		secName = fmt.Sprintf("section %d", k)
	}
	var buf [4]batch
	rt, ok, _ := c.timedAcquire(in, owner, in.T.SectionAt(k).RW.Requests(), nil, buf[:0])
	if !ok {
		// The section cannot reach its partitions (or the shard map
		// churned past the retry budget); the multi-stage guarantee
		// (initial commit ⇒ every later commit) is broken, so the earlier
		// sections' effects are retracted.
		c.abortTxn(in, "edge crashed before "+secName)
		return txn.ErrRetracted
	}
	if c.epochsBroken(rt) {
		c.abortTxn(in, "edge crashed while "+secName+" waited for locks")
		c.release(owner, rt)
		return txn.ErrRetracted
	}
	// The boundary commits even when the body errs (the multi-stage
	// contract), so the commit round logs what the body wrote.
	err := c.M.ExecSection(in, txn.Stage(k))
	if cerr := c.timedCommit(in, uint8(k), rt); cerr != nil {
		c.abortTxn(in, "commit of "+secName+" interrupted by edge failure")
		c.release(owner, rt)
		return txn.ErrRetracted
	}
	retracted := c.M.MarkSectionCommitted(in, k)
	c.release(owner, rt)
	if err == nil && retracted {
		return txn.ErrRetracted
	}
	return err
}
