// Shard map: the mutable routing table of a sharded fleet. The static
// partitioner of the original sharded keyspace hard-wired logical shard i to
// partition i; a ShardMap makes that binding explicit state — logical shards
// route to partitions through an epoch-versioned owner table — which is what
// lets the fleet move a shard between edges while transactions are in
// flight. MigrateShard is the movement itself: a quiesce-and-cutover key
// handoff run as a two-phase commit across the source and destination
// partitions, durable when the partitions carry WALs, so a crash schedule
// can land anywhere around a migration without losing, duplicating, or
// half-moving a key.
//
// Concurrency contract. Every transaction routed through a ShardedCC whose
// Map is set takes a shared "shard intent" lock (a synthetic key per logical
// shard, owned by the shard's home partition) alongside its data locks; a
// migration takes the same intent exclusively at both the old and the new
// home. The exclusive acquisition therefore waits out every in-flight
// transaction touching the shard — including ones about to insert keys the
// source store has never seen — and blocks new ones until the cutover is
// done: in-flight transactions finish on the old epoch, blocked ones wake,
// notice their routes went stale (ShardedCC re-checks after acquisition),
// and retry on the new map.
package twopc

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"croesus/internal/lock"
	"croesus/internal/obs"
	"croesus/internal/transport"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/wal"
	"croesus/internal/workload"
)

// ShardIntentKey is the synthetic lock key serializing transactions against
// migrations of one logical shard. It parses as a key of that shard (so it
// routes to the shard's home partition) and sorts before every data key of
// the shard ('!' < any alphanumeric), which keeps AcquireAll's per-partition
// sorted batches acquiring the intent before the shard's data keys.
func ShardIntentKey(shard int) string { return "s" + strconv.Itoa(shard) + "/!intent" }

// ShardMap routes keys to partitions: a tagged key ("s<k>/...") goes to the
// partition currently owning logical shard k, an untagged key hashes. The
// owner table is mutable — MigrateShard rebinds a shard to a new partition
// and bumps the epoch, the signal in-flight transactions use to detect that
// a route they planned under no longer holds.
type ShardMap struct {
	mu     sync.Mutex
	owner  []int
	epoch  int64
	frozen map[int][]vclock.Gate // mid-cutover shards; gates wake blocked routers
	hash   func(string) int
	// intents[k] is ShardIntentKey(k), built once: every transaction on
	// the fleet takes one intent per shard it touches. The owner table
	// never grows, so neither does this.
	intents []string
}

// NewShardMap returns a map of len(owners) logical shards over nParts
// partitions; owners[k] is shard k's initial home. Untagged keys hash over
// the partitions.
func NewShardMap(owners []int, nParts int) (*ShardMap, error) {
	if nParts <= 0 {
		return nil, fmt.Errorf("twopc: shard map needs at least one partition")
	}
	own := append([]int{}, owners...)
	for s, p := range own {
		if p < 0 || p >= nParts {
			return nil, fmt.Errorf("twopc: shard %d owned by unknown partition %d", s, p)
		}
	}
	intents := make([]string, len(own))
	for k := range intents {
		intents[k] = ShardIntentKey(k)
	}
	return &ShardMap{owner: own, frozen: make(map[int][]vclock.Gate), hash: HashPartitioner(nParts), intents: intents}, nil
}

// intentKey returns ShardIntentKey(shard), without allocating for the
// map's own shards.
func (m *ShardMap) intentKey(shard int) string {
	if shard < len(m.intents) {
		return m.intents[shard]
	}
	return ShardIntentKey(shard)
}

// Shards returns the number of logical shards.
func (m *ShardMap) Shards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.owner)
}

// Epoch returns the current map epoch; it advances on every rebind.
func (m *ShardMap) Epoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Owner returns the partition currently owning a logical shard.
func (m *ShardMap) Owner(shard int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owner[shard]
}

// Lookup routes a key to its owning partition under the current map.
func (m *ShardMap) Lookup(key string) int {
	if s, ok := workload.ShardOf(key); ok {
		m.mu.Lock()
		if s < len(m.owner) {
			p := m.owner[s]
			m.mu.Unlock()
			return p
		}
		m.mu.Unlock()
	}
	return m.hash(key)
}

// Barrier blocks while key's shard is mid-cutover. Lock-protected paths
// never hit it (the shard intent quiesces them); it exists for the lock-free
// writers — retraction restores journaled through the sharded store — whose
// writes must land under the post-cutover route rather than race the copy.
func (m *ShardMap) Barrier(clk vclock.Clock, key string) {
	s, ok := workload.ShardOf(key)
	if !ok {
		return
	}
	for {
		m.mu.Lock()
		if _, fr := m.frozen[s]; !fr {
			m.mu.Unlock()
			return
		}
		g := clk.NewGate()
		m.frozen[s] = append(m.frozen[s], g)
		m.mu.Unlock()
		g.Wait()
	}
}

// freeze marks a shard mid-cutover; unfreeze rebinds it (when to ≥ 0),
// bumps the epoch, and wakes every blocked router.
func (m *ShardMap) freeze(shard int) {
	m.mu.Lock()
	if _, ok := m.frozen[shard]; !ok {
		m.frozen[shard] = nil
	}
	m.mu.Unlock()
}

func (m *ShardMap) unfreeze(shard, to int) {
	m.mu.Lock()
	gates := m.frozen[shard]
	delete(m.frozen, shard)
	if to >= 0 {
		m.owner[shard] = to
		m.epoch++
	}
	m.mu.Unlock()
	for _, g := range gates {
		g.Fire()
	}
}

// migMsgBytes sizes one migration protocol message; key payloads are
// charged at their real size.
const migMsgBytes = 256

// ShardMigration moves one logical shard between partitions: quiesce the
// shard (exclusive intent at both homes), copy its keys to the destination
// and delete them at the source as one atomic commitment (WAL-staged on
// durable partitions, coordinated by the destination), rebind the map, and
// release. Construct, then call Run from a clock participant.
type ShardMigration struct {
	Clk   vclock.Clock
	Map   *ShardMap
	Parts []*Partition
	// Shard moves From → To (partition indexes).
	Shard, From, To int
	// Link is the From→To path the key payload crosses; Reverse carries
	// the protocol round trips back. Nil models co-located partitions.
	Link, Reverse transport.Path
	// Faults, when set, is consulted for liveness: a migration never
	// reads or writes a fail-stopped partition, it retries instead.
	Faults FaultOracle
	// Owner is the migration's lock owner and WAL transaction id. It must
	// be fleet-unique and outside the transaction-id space (the cluster
	// allocates from a high range) so wait-die treats the migration as
	// younger than every transaction and logs can't collide.
	Owner uint64
	// Obs, when set, records migrate.quiesce / migrate.cutover spans
	// under the Tags tag string.
	Obs  *obs.Obs
	Tags string

	// Moved reports how many keys the completed migration carried.
	Moved int
}

// migrationRetryEvery and migrationMaxAttempts pace a migration's retries
// when an involved edge is down or crashes mid-handoff.
const (
	migrationRetryEvery  = 250 * time.Millisecond
	migrationMaxAttempts = 20
)

// ErrMigrationFailed reports a migration that exhausted its retry budget
// (the involved edges never stayed up long enough to hand the shard over).
var ErrMigrationFailed = fmt.Errorf("twopc: shard migration failed")

// Run performs the migration, retrying around edge outages. The caller must
// be a clock participant. On success the map routes the shard to To and the
// source partition holds none of its keys.
func (g *ShardMigration) Run() error {
	if g.From == g.To {
		return nil
	}
	for attempt := 1; ; attempt++ {
		err := g.attempt()
		if err == nil {
			return nil
		}
		if attempt >= migrationMaxAttempts {
			return fmt.Errorf("%w: shard %d %d→%d after %d attempts: %v",
				ErrMigrationFailed, g.Shard, g.From, g.To, attempt, err)
		}
		g.Clk.Sleep(migrationRetryEvery)
	}
}

func (g *ShardMigration) down(pi int) bool { return g.Faults != nil && g.Faults.Down(pi) }

func (g *ShardMigration) epoch(pi int) int {
	if g.Faults == nil {
		return 0
	}
	return g.Faults.Epoch(pi)
}

func (g *ShardMigration) reachable() bool {
	if g.down(g.From) || g.down(g.To) {
		return false
	}
	if g.Link != nil && g.Link.IsDown() {
		return false
	}
	if g.Reverse != nil && g.Reverse.IsDown() {
		return false
	}
	return true
}

// shardKeys returns the shard's keys currently at the source, sorted.
func (g *ShardMigration) shardKeys() []string {
	snap := g.Parts[g.From].Store.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		if s, ok := workload.ShardOf(k); ok && s == g.Shard {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (g *ShardMigration) attempt() error {
	if !g.reachable() {
		return ErrCrashed
	}
	fromEpoch, toEpoch := g.epoch(g.From), g.epoch(g.To)

	// Transfer cost, charged from a pre-quiesce sizing pass: the payload
	// streams while the shard still serves (as production migrations do),
	// and only the cutover below is instantaneous. The protocol itself
	// costs a prepare and a commit round trip on the reverse path.
	var bytes int
	for _, k := range g.shardKeys() {
		if v, ok := g.Parts[g.From].Store.Get(k); ok {
			bytes += len(k) + len(v)
		}
	}
	var wait time.Duration
	if g.Link != nil {
		wait += g.Link.Charge(bytes + migMsgBytes)
	}
	if g.Reverse != nil {
		wait += g.Reverse.Charge(migMsgBytes) + g.Reverse.Charge(migMsgBytes)
	}
	if wait > 0 {
		g.Clk.Sleep(wait)
	}
	if !g.reachable() || g.epoch(g.From) != fromEpoch || g.epoch(g.To) != toEpoch {
		return ErrCrashed
	}

	// Quiesce: the exclusive shard intents wait out every in-flight
	// transaction touching the shard and block new ones at either home.
	owner := lock.Owner(g.Owner)
	intent := []lock.Request{{Key: g.Map.intentKey(g.Shard), Mode: lock.Exclusive}}
	first, second := g.From, g.To
	if second < first {
		first, second = second, first
	}
	tQuiesce := g.Clk.Now()
	g.Parts[first].Locks.AcquireAll(owner, intent)
	g.Parts[second].Locks.AcquireAll(owner, intent)
	g.Obs.Span(obs.SpanQuiesce, g.Tags, tQuiesce, g.Clk.Now())
	release := func() {
		g.Parts[second].Locks.ReleaseAll(owner, intent)
		g.Parts[first].Locks.ReleaseAll(owner, intent)
	}
	// The waits above may have spanned crashes: a partition that crashed
	// since the sizing pass lost volatile state (including these locks).
	if !g.reachable() || g.epoch(g.From) != fromEpoch || g.epoch(g.To) != toEpoch {
		release()
		return ErrCrashed
	}

	// Cutover: no virtual time passes from here to the release. The
	// freeze parks lock-free writers (retraction restores) so nothing can
	// land on the source between the copy and the rebind.
	tCutover := g.Clk.Now()
	g.Map.freeze(g.Shard)
	keys := g.shardKeys()
	cr := CommitRound{ID: txn.ID(g.Owner), Round: RoundInitial}
	src, dst := g.Parts[g.From], g.Parts[g.To]
	puts := make([]wal.Record, 0, len(keys))
	dels := make([]wal.Record, 0, len(keys))
	for _, k := range keys {
		v, ok := src.Store.Get(k)
		if !ok {
			continue
		}
		puts = append(puts, wal.Record{Op: wal.OpPut, Txn: g.Owner, Round: cr.Round, Key: k, Value: v})
		dels = append(dels, wal.Record{Op: wal.OpDelete, Txn: g.Owner, Round: cr.Round, Key: k})
	}
	// Atomic commitment of the handoff, coordinated by the destination:
	// both sides stage durably, the destination's decision is the commit
	// point, and recovery semantics are exactly a 2PC round's — a crash
	// before the decision presume-aborts the move (keys stay at the
	// source), one after it completes the move from the logs. Both sides
	// log the outcome at once, so the destination forgets the round too.
	dst.StagePrepare(cr, g.To, puts)
	src.StagePrepare(cr, g.To, dels)
	dst.LogDecision(cr)
	dst.DeliverDecision(cr, true)
	src.DeliverDecision(cr, true)
	dst.Await(cr, nil)
	for _, r := range puts {
		dst.Store.Put(r.Key, r.Value)
		src.Store.Delete(r.Key)
	}
	g.Moved = len(puts)
	g.Map.unfreeze(g.Shard, g.To)
	release()
	g.Obs.Span(obs.SpanCutover, g.Tags, tCutover, g.Clk.Now())
	return nil
}
