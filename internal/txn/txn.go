// Package txn implements the paper's multi-stage transaction model (§4).
//
// A multi-stage transaction consists of an initial section, triggered by the
// edge model's labels and committed immediately ("initial commit"), and a
// final section, triggered by the corrected cloud labels, that fixes any
// errors and commits the transaction ("final commit"). Once a transaction
// initially commits, its final section is guaranteed to commit.
//
// Two concurrency-control protocols are provided:
//
//   - MSSR — multi-stage serializability via Two Stage 2PL (Algorithm 1):
//     the initial section also acquires the final section's locks before the
//     initial commit, and every lock is held until the final commit.
//   - MSIA — multi-stage invariant confluence with apologies (Algorithm 2):
//     each section locks only its own read/write set and releases at its own
//     commit; the final section is programmed as an invariant-restoring
//     merge/apology and may retract the initial section's effects.
//
// The Manager tracks, per key, the last committed writer, so a retraction
// cascades to dependent transactions (the token-transfer scenario of §4.4)
// and emits Apology records.
//
// That dependency index follows the in-flight window, not the manager's
// uptime. An instance is terminal once it can run no further section body
// (it aborted, committed its last boundary, or a retraction reached it
// between sections) and settled once it is terminal and no non-terminal
// instance reaches it over dependency edges. A cascade only ever starts at
// an instance that is running a section, and an edge into an instance is
// only ever added while that instance runs one, so a terminal instance gains
// no new ancestors: settled is permanent, a settled instance can be in no
// future retraction's affected set, and the manager forgets it — its undo
// images, its edges, and every last-writer entry that still names it. A
// mark-and-sweep from the non-terminal instances finds the settled ones
// (instances that touch each other's keys form cycles, so counting
// references would not); since it removes only state no cascade can reach,
// when it runs is not observable.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"croesus/internal/lock"
	"croesus/internal/obs"
	"croesus/internal/store"
	"croesus/internal/vclock"
)

// ID identifies a transaction instance.
type ID uint64

// Stage is a transaction section's index. The classic two-stage model uses
// exactly StageInitial and StageFinal; an N-section transaction (see
// SectionSpec) numbers its sections 0..N-1 and Stage(k) names the k-th.
type Stage int

// The two stages of the classic two-stage model.
const (
	StageInitial Stage = iota
	StageFinal
)

func (s Stage) String() string {
	switch s {
	case StageInitial:
		return "initial"
	case StageFinal:
		return "final"
	default:
		return fmt.Sprintf("section-%d", int(s))
	}
}

// State is an instance's lifecycle state.
type State int

// Instance states.
const (
	StatePending State = iota
	StateInitialCommitted
	StateFinalCommitted
	StateAborted
	StateRetracted
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateInitialCommitted:
		return "initial-committed"
	case StateFinalCommitted:
		return "final-committed"
	case StateAborted:
		return "aborted"
	case StateRetracted:
		return "retracted"
	default:
		return "unknown"
	}
}

// ErrAborted is returned when a protocol aborts a section (no-wait lock
// acquisition failed).
var ErrAborted = errors.New("txn: aborted")

// ErrRetracted is returned by RunFinal when the instance was retracted (by
// its own apology logic or by a cascade from another transaction) before or
// during its final section; callers should treat the transaction as
// terminally undone.
var ErrRetracted = errors.New("txn: retracted")

// RWSet declares the keys a section may read and write. Declared sets are
// what the paper's algorithms call get_rwsets(t); they allow ordered,
// deadlock-free lock acquisition.
type RWSet struct {
	Reads  []string
	Writes []string

	// norm, when non-nil, caches the normalized lock requests (see
	// Precompute). Copies of the set share the cache, so a template
	// built once per trigger pays for normalization once, not once per
	// section run.
	norm []lock.Request
}

// Precompute builds and caches the normalized lock requests, appending them
// to backing (nil allocates; a template that embeds an array for them passes
// arr[:0]). Call it after the Reads/Writes slices are final; later mutation
// of the set is not reflected in Requests.
func (s *RWSet) Precompute(backing []lock.Request) {
	s.norm = s.buildRequests(backing)
}

// Requests converts the declared set to lock requests (reads shared, writes
// exclusive; a key in both is exclusive). With a Precompute'd set this is a
// cache read and allocates nothing.
func (s RWSet) Requests() []lock.Request {
	if s.norm != nil {
		return s.norm
	}
	return s.buildRequests(make([]lock.Request, 0, len(s.Reads)+len(s.Writes)))
}

func (s RWSet) buildRequests(reqs []lock.Request) []lock.Request {
	for _, k := range s.Reads {
		reqs = append(reqs, lock.Request{Key: k, Mode: lock.Shared})
	}
	for _, k := range s.Writes {
		reqs = append(reqs, lock.Request{Key: k, Mode: lock.Exclusive})
	}
	return lock.NormalizeInPlace(reqs)
}

// Union merges two sets.
func (s RWSet) Union(o RWSet) RWSet {
	return RWSet{
		Reads:  append(append([]string{}, s.Reads...), o.Reads...),
		Writes: append(append([]string{}, s.Writes...), o.Writes...),
	}
}

func (s RWSet) canRead(key string) bool {
	for _, k := range s.Reads {
		if k == key {
			return true
		}
	}
	return s.canWrite(key)
}

func (s RWSet) canWrite(key string) bool {
	for _, k := range s.Writes {
		if k == key {
			return true
		}
	}
	return false
}

// Section is the programmer-supplied body of one stage.
type Section func(ctx *Ctx) error

// Txn is a multi-stage transaction template: declared read/write sets plus
// the section bodies. Templates are instantiated per trigger.
//
// The classic two-stage form fills InitialRW/Initial and FinalRW/Final. An
// N-section transaction instead fills Sections with its ordered section
// specs; the classic fields are then ignored (SectionAt is the accessor
// every protocol reads through, and it synthesizes the canonical pair for
// a Txn with no Sections).
type Txn struct {
	Name      string
	InitialRW RWSet
	FinalRW   RWSet
	Initial   Section
	Final     Section
	// Sections, when non-empty, declares an N-section transaction over an
	// inference graph (one section per graph node, in graph order).
	Sections []SectionSpec
}

// Apology records a user-visible correction issued by a final section, per
// the guesses-and-apologies pattern the model adapts.
type Apology struct {
	TxnID   ID
	TxnName string
	Reason  string
}

func (a Apology) String() string {
	return fmt.Sprintf("apology(txn %d %s): %s", a.TxnID, a.TxnName, a.Reason)
}

// undoRec captures one write's before-image for retraction.
type undoRec struct {
	seq     uint64 // global write order
	key     string
	prev    store.Value
	existed bool
}

// Instance is one execution of a Txn template.
type Instance struct {
	ID  ID
	T   *Txn
	mgr *Manager

	// InitialIn and FinalIn carry the section inputs (e.g., detected
	// labels); the pipeline sets them before running each section.
	InitialIn any
	FinalIn   any

	// Trace is the frame's span context, set by the pipeline when tracing
	// is enabled so the CC protocol's lock and 2PC spans — and the trace
	// contexts its wire messages carry — join the frame's tree. The zero
	// value disables per-instance tracing.
	Trace obs.SpanContext

	mu    sync.Mutex
	state State
	// inBody is set from the moment a section's context is handed out until
	// the protocol reports that section's outcome (boundary commit, abort,
	// or a Manager.Retract from outside the body): a retraction that
	// reaches the instance in that window must leave it non-terminal.
	inBody    bool
	apologies []Apology
	sectionIn map[int]any // middle-section inputs (0 and last alias InitialIn/FinalIn)
	committed int         // section boundaries committed so far
	holding   bool        // MSSR: every section's locks are held until the last commit

	// The instance's part of the manager's dependency index, guarded by
	// mgr.mu (not mu). undo holds every write of every section in write
	// order; a retraction consumes it, leaving undo[:undone] with only
	// their keys so that settling still finds the last-writer entries.
	undo       []undoRec
	undone     int
	undoArr    [6]undoRec   // inline backing for the first few writes
	dependents []*Instance  // instances that read/overwrote our writes
	depArr     [4]*Instance // inline backing for the first few dependents
	livePos    int          // 1 + position in mgr.live; 0 when not on it
	mark       uint64       // mgr.visits value of the last walk that reached it

	// sctx is the reusable section context handed to section bodies: an
	// instance's sections run strictly one after another, so a single
	// scratch Ctx serves them all without a per-section allocation.
	sctx Ctx

	// lockWait and twoPC accumulate instrumented time spent inside this
	// instance's sections waiting for locks and in 2PC fan-out rounds.
	// Protocols add as they run; the pipeline harvests per frame with
	// TakeTiming to attribute the time in the frame's Breakdown.
	lockWait time.Duration
	twoPC    time.Duration
}

// AddLockWait accumulates time this instance spent acquiring locks
// (including wait-die waits that ended in an abort).
func (in *Instance) AddLockWait(d time.Duration) {
	if d <= 0 {
		return
	}
	in.mu.Lock()
	in.lockWait += d
	in.mu.Unlock()
}

// AddTwoPC accumulates time this instance spent in distributed
// prepare/commit fan-out rounds.
func (in *Instance) AddTwoPC(d time.Duration) {
	if d <= 0 {
		return
	}
	in.mu.Lock()
	in.twoPC += d
	in.mu.Unlock()
}

// TakeTiming returns and zeroes the accumulated lock-wait and 2PC time,
// so a caller that harvests after each section charges each interval to
// exactly one breakdown bucket.
func (in *Instance) TakeTiming() (lockWait, twoPC time.Duration) {
	in.mu.Lock()
	lockWait, twoPC = in.lockWait, in.twoPC
	in.lockWait, in.twoPC = 0, 0
	in.mu.Unlock()
	return lockWait, twoPC
}

// State returns the instance's lifecycle state.
func (in *Instance) State() State {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.state
}

// Apologies returns the apologies issued so far by this instance.
func (in *Instance) Apologies() []Apology {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.apologies) == 0 {
		return nil
	}
	return append([]Apology{}, in.apologies...)
}

// TakeApologies returns the apologies issued so far and clears them from
// the instance, avoiding the defensive copy of Apologies. For callers that
// harvest each instance exactly once (the classic pipeline's final stage).
func (in *Instance) TakeApologies() []Apology {
	in.mu.Lock()
	defer in.mu.Unlock()
	a := in.apologies
	in.apologies = nil
	return a
}

// sectionCtx returns the instance's reusable section context, retargeted
// at stage, and marks the instance as running a section body. Sections of
// one instance never run concurrently (the protocols commit boundaries in
// order), so reuse is safe.
func (in *Instance) sectionCtx(stage Stage) *Ctx {
	in.mu.Lock()
	in.inBody = true
	in.mu.Unlock()
	in.sctx.inst = in
	in.sctx.stage = stage
	return &in.sctx
}

// Stats counts protocol events.
type Stats struct {
	InitialCommits int64
	FinalCommits   int64
	// SectionCommits counts middle-section boundary commits of N-section
	// transactions (a classic two-stage transaction has none).
	SectionCommits int64
	Aborts         int64
	Retractions    int64
	Apologies      int64
}

// Backend is the key-value storage a Manager writes through. A manager
// with no DB uses the embedded *store.Store directly; every edge's manager
// (internal/node) writes through twopc's router, which forwards each
// operation to the partition owning the key, so undo logging, dependency
// tracking, and retraction cascades work unchanged over a keyspace sharded
// across edge nodes, or over a standalone edge's one partition.
type Backend interface {
	Get(key string) (store.Value, bool)
	Put(key string, v store.Value) uint64
	Delete(key string) bool
}

// Manager owns the store, the lock manager, and the dependency index shared
// by all protocol implementations.
type Manager struct {
	Clk   vclock.Clock
	Store *store.Store
	Locks *lock.Manager
	// DB, when set, replaces Store as the storage backend (Store may then
	// be nil). Every section read/write and every retraction restore goes
	// through it.
	DB Backend
	// RestoreDB, when set, is the backend retraction restores (and an
	// aborted section's undo) go through instead of DB. A durable sharded
	// fleet points it at a journaling wrapper so the before-images a
	// cascade re-installs reach each partition's write-ahead log —
	// otherwise a recovered edge would resurrect the retracted writes.
	RestoreDB Backend
	// Tracer, when set, records retraction-cascade spans (timestamps from
	// Clk — a schedule-neutral read); TraceTags is the canonical tag
	// string stamped on them.
	Tracer    *obs.Tracer
	TraceTags string

	mu      sync.Mutex
	nextID  ID
	nextSeq uint64
	stats   Stats
	// onCommit, when set, sees every boundary commit in commit order, under
	// mu. Only tests set it: production keeps no commit history.
	onCommit func(ID, Stage)

	// The dependency index (see the package comment). Its edges are
	// lastWriter and every Instance's dependents; live lists the
	// non-terminal instances that have touched it, waiting the terminal
	// ones not yet known to be settled. All of it — and every Instance's
	// undo log — is guarded by mu alone, one critical section per operation.
	lastWriter map[string]*Instance
	live       []*Instance
	waiting    []*Instance
	sweepAt    int    // len(waiting) at which the next sweep runs
	visits     uint64 // graph walks so far (sweeps and cascades); the current walk's mark
}

// NewManager returns a Manager over the given clock, store, and locks.
func NewManager(clk vclock.Clock, st *store.Store, locks *lock.Manager) *Manager {
	return &Manager{
		Clk:        clk,
		Store:      st,
		Locks:      locks,
		lastWriter: make(map[string]*Instance),
		sweepAt:    sweepSlack,
	}
}

// db returns the effective storage backend.
func (m *Manager) db() Backend {
	if m.DB != nil {
		return m.DB
	}
	return m.Store
}

// restoreDB returns the backend retraction restores write through.
func (m *Manager) restoreDB() Backend {
	if m.RestoreDB != nil {
		return m.RestoreDB
	}
	return m.db()
}

// now reads the manager's clock for instrumentation; 0 when no clock is
// configured (unit tests that construct a Manager without one).
func (m *Manager) now() time.Duration {
	if m.Clk == nil {
		return 0
	}
	return m.Clk.Now()
}

// NewInstance instantiates a template with the given initial-section input.
func (m *Manager) NewInstance(t *Txn, initialIn any) *Instance {
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.mu.Unlock()
	return &Instance{ID: id, T: t, mgr: m, InitialIn: initialIn}
}

// Stats returns a snapshot of the protocol counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Ctx is the handle a section body uses to access the database. All writes
// are undo-logged on the instance, and reads/writes of keys last written by
// another instance record a dependency edge for cascading retraction.
type Ctx struct {
	inst  *Instance
	stage Stage
}

// Stage reports which section is executing.
func (c *Ctx) Stage() Stage { return c.stage }

// In returns the section's input (InitialIn, FinalIn, or a middle
// section's input installed with SetSectionIn).
func (c *Ctx) In() any {
	return c.inst.sectionInput(int(c.stage))
}

// ID returns the executing instance's ID.
func (c *Ctx) ID() ID { return c.inst.ID }

func (c *Ctx) rwset() RWSet {
	return c.inst.T.SectionAt(int(c.stage)).RW
}

// Get reads a key within the declared set.
func (c *Ctx) Get(key string) (store.Value, bool) {
	m := c.inst.mgr
	if !c.rwset().canRead(key) {
		panic(fmt.Sprintf("txn %q %s section read of undeclared key %q", c.inst.T.Name, c.stage, key))
	}
	m.noteAccess(c.inst, key)
	return m.db().Get(key)
}

// Put writes a key within the declared set, undo-logging the before-image.
func (c *Ctx) Put(key string, v store.Value) {
	m := c.inst.mgr
	if !c.rwset().canWrite(key) {
		panic(fmt.Sprintf("txn %q %s section write of undeclared key %q", c.inst.T.Name, c.stage, key))
	}
	m.writeWithUndo(c.inst, key, v, false)
}

// Delete removes a key within the declared set, undo-logging it.
func (c *Ctx) Delete(key string) {
	m := c.inst.mgr
	if !c.rwset().canWrite(key) {
		panic(fmt.Sprintf("txn %q %s section delete of undeclared key %q", c.inst.T.Name, c.stage, key))
	}
	m.writeWithUndo(c.inst, key, nil, true)
}

// Apologize records an apology on the instance without undoing anything —
// the lightweight end of the apology spectrum (e.g., a corrected render plus
// a free game item).
func (c *Ctx) Apologize(reason string) {
	c.inst.mu.Lock()
	c.inst.apologies = append(c.inst.apologies, Apology{TxnID: c.inst.ID, TxnName: c.inst.T.Name, Reason: reason})
	c.inst.mu.Unlock()
	m := c.inst.mgr
	m.mu.Lock()
	m.stats.Apologies++
	m.mu.Unlock()
}

// Retract undoes every write of this instance's sections and, transitively,
// of all dependent instances, restoring before-images in reverse write
// order. Each retracted instance yields an apology. It is called from a
// final section when the initial section's trigger or input turns out to be
// erroneous and its effects cannot be merged.
func (c *Ctx) Retract(reason string) []Apology {
	return c.inst.mgr.retract(c.inst, reason)
}

// noteAccess records a dependency edge from the last writer of key to inst.
func (m *Manager) noteAccess(inst *Instance, key string) {
	m.mu.Lock()
	m.link(inst, key)
	m.mu.Unlock()
}

// link puts inst on the live list when it is not there (its first touch of
// the index) and adds the edge from key's last writer to it. Caller holds
// m.mu.
func (m *Manager) link(inst *Instance, key string) {
	if inst.livePos == 0 {
		m.live = append(m.live, inst)
		inst.livePos = len(m.live)
	}
	last := m.lastWriter[key]
	if last == nil || last == inst {
		return
	}
	for _, d := range last.dependents {
		if d == inst {
			return
		}
	}
	if last.dependents == nil {
		last.dependents = last.depArr[:0]
	}
	last.dependents = append(last.dependents, inst)
}

func (m *Manager) writeWithUndo(inst *Instance, key string, v store.Value, del bool) {
	db := m.db()
	prev, existed := db.Get(key)
	m.mu.Lock()
	m.link(inst, key)
	m.nextSeq++
	m.lastWriter[key] = inst
	if inst.undo == nil {
		inst.undo = inst.undoArr[:0]
	}
	inst.undo = append(inst.undo, undoRec{seq: m.nextSeq, key: key, prev: prev, existed: existed})
	m.mu.Unlock()

	if del {
		db.Delete(key)
	} else {
		db.Put(key, v)
	}
}

// sweepSlack is how many terminal instances may wait beyond twice the last
// sweep's survivors before the next sweep: each sweep walks everything the
// live instances reach, so letting the waiting list double first keeps the
// walks amortized against the retirements that paid for them.
const sweepSlack = 64

// retire takes a terminal instance off the live list and queues it for the
// next sweep, running that sweep when enough have queued. An instance that
// never touched the index is on no list and stays off. Caller holds m.mu.
func (m *Manager) retire(in *Instance) {
	if in.livePos == 0 {
		return
	}
	tail := len(m.live) - 1
	moved := m.live[tail]
	m.live[in.livePos-1] = moved
	moved.livePos = in.livePos
	m.live[tail] = nil
	m.live = m.live[:tail]
	in.livePos = 0
	m.waiting = append(m.waiting, in)
	if len(m.waiting) >= m.sweepAt {
		m.sweep()
	}
}

// Sweep runs a sweep now rather than when the waiting list next fills: a
// caller whose work has drained calls it so that the manager keeps no
// settled transaction.
func (m *Manager) Sweep() {
	m.mu.Lock()
	m.sweep()
	m.mu.Unlock()
}

// sweep marks every instance a live one reaches over dependents edges and
// settles the waiting instances left unmarked. Caller holds m.mu.
func (m *Manager) sweep() {
	m.visits++
	stack := make([]*Instance, len(m.live), len(m.live)+len(m.waiting))
	copy(stack, m.live)
	for _, in := range stack {
		in.mark = m.visits
	}
	for len(stack) > 0 {
		in := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range in.dependents {
			if d.mark != m.visits {
				d.mark = m.visits
				stack = append(stack, d)
			}
		}
	}
	kept := m.waiting[:0]
	for _, in := range m.waiting {
		if in.mark == m.visits {
			kept = append(kept, in)
		} else {
			m.settle(in)
		}
	}
	for i := len(kept); i < len(m.waiting); i++ {
		m.waiting[i] = nil
	}
	m.waiting = kept
	m.sweepAt = 2*len(kept) + sweepSlack
}

// settle forgets an instance no cascade can reach any more: its undo log,
// its edges, and the last-writer entries that still name it. Caller holds
// m.mu.
func (m *Manager) settle(in *Instance) {
	for i := range in.undo {
		if k := in.undo[i].key; m.lastWriter[k] == in {
			delete(m.lastWriter, k)
		}
	}
	in.undo, in.undone, in.undoArr = nil, 0, [len(in.undoArr)]undoRec{}
	in.dependents, in.depArr = nil, [len(in.depArr)]*Instance{}
}
