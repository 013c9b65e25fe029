// Durable partitions: the one write-ahead-log backend, serving both the
// simulated sharded fleet and a standalone croesus edge (a one-partition
// fleet, node.NewDurable, that commits through ShardedCC like any other).
// When a Partition carries a WAL, every section commit it participates in
// is logged — single-partition commits as a data batch closed by a commit
// marker, multi-partition commits as the participant's staged block (data
// records + prepare marker) followed by the coordinator's decision — so a
// crashed edge rebuilds exactly the committed state with Recover and
// resolves prepared-but-undecided rounds against the coordinator's log
// (presumed abort: no durable commit decision for that round means abort).
// Callers open a log only through OpenWAL and judge one only through
// VerifyWAL.
//
// A multi-stage transaction runs up to two independent atomic-commitment
// rounds (MS-IA commits at both section boundaries), so all durable state
// here — markers, staged blocks, the decision cache — is keyed by
// CommitRound, never by transaction id alone: an in-doubt final-round
// block must not resolve from the initial round's commit marker.
package twopc

import (
	"fmt"
	"sort"

	"croesus/internal/lock"
	"croesus/internal/store"
	"croesus/internal/txn"
	"croesus/internal/wal"
)

// A transaction's atomic-commitment rounds are numbered by section index:
// the round that commits section k's boundary is round k. MS-IA runs one
// round per section, 0 through N−1 in an N-section graph; MS-SR runs a
// single round, at the last section's index, covering every section's
// writes. RoundInitial is section 0's round; any later round is its
// section's index.
const RoundInitial uint8 = 0

// CommitRound identifies one atomic-commitment round of one transaction —
// the key every piece of durable 2PC state lives under.
type CommitRound struct {
	ID    txn.ID
	Round uint8
}

// TxnRound converts to the wal-level key.
func (cr CommitRound) TxnRound() wal.TxnRound {
	return wal.TxnRound{Txn: uint64(cr.ID), Round: cr.Round}
}

func (cr CommitRound) less(o CommitRound) bool {
	return cr.TxnRound().Less(o.TxnRound())
}

// walStage is a prepared-but-undecided commit-round block held by a
// participant between the prepare vote and the decision.
type walStage struct {
	coord int
	recs  []wal.Record
	// fromRecovery marks a block re-installed by crash recovery: its
	// writes are not in the rebuilt store and must be applied if the
	// decision turns out to be commit. A live block's writes were applied
	// eagerly under locks during section execution and need no re-apply.
	fromRecovery bool
	// stagedAt is the partition's data-record sequence at restage time:
	// a key that logged a newer data record while the block sat in doubt
	// (a retraction restore, a later transaction's commit — the crash
	// freed this block's locks) supersedes the staged write, exactly as
	// wal.Recover resolves by log position.
	stagedAt int64
}

// Durable reports whether this partition logs to a WAL. That is settled
// before the partition serves its first commit — Checkpoint swaps the log
// but never adds or removes one — so the answer is recorded at the first
// call and the commit path reads it without taking the partition lock
// Checkpoint holds while it swaps p.WAL.
func (p *Partition) Durable() bool {
	p.durableOnce.Do(func() {
		p.mu.Lock()
		p.durable = p.WAL != nil
		p.mu.Unlock()
	})
	return p.durable
}

// OpenWAL makes the partition durable on the log at path. Any existing log
// is recovered first (see Recover), so a respawned edge serves its
// committed state, and then opened for append. The returned replay's
// InDoubt rounds are the caller's to resolve.
func (p *Partition) OpenWAL(path string, noSync bool) (*wal.RecoverResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, err := p.recoverLocked(path)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(path)
	if err != nil {
		return nil, err
	}
	log.NoSync = noSync
	p.WAL = log
	return res, nil
}

// Recover rebuilds a crashed partition from its own log: the store is
// replaced by the replayed committed state and the decision cache by the
// logged decisions. Prepared-but-undecided rounds come back in InDoubt,
// to be re-staged (Restage) and resolved against their coordinators.
func (p *Partition) Recover() (*wal.RecoverResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recoverLocked(p.WAL.Path())
}

func (p *Partition) recoverLocked(path string) (*wal.RecoverResult, error) {
	res, err := wal.Recover(path)
	if err != nil {
		return nil, err
	}
	p.Store.Restore(res.Store.Snapshot())
	p.decisions = make(map[CommitRound]bool, len(res.Decisions))
	for k, c := range res.Decisions {
		p.decisions[CommitRound{ID: txn.ID(k.Txn), Round: k.Round}] = c
	}
	return res, nil
}

// WALPath is the file the partition logs to; checkpoints rewrite it in
// place, so it never changes.
func (p *Partition) WALPath() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.WAL.Path()
}

// VerifyWAL is the durability check: with writers quiesced on the
// partition lock, the log is replayed and must have no torn tail, no
// prepared-but-undecided round, and exactly the live store's keys and
// values. The replay is returned once it succeeds, even alongside a
// failed verdict; its Decisions let a fleet cross-check atomic commitment.
func (p *Partition) VerifyWAL() (*wal.RecoverResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, err := wal.Recover(p.WAL.Path())
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return res, fmt.Errorf("log has a torn tail")
	}
	if len(res.InDoubt) > 0 {
		return res, fmt.Errorf("log leaves %d in-doubt commit rounds", len(res.InDoubt))
	}
	live := p.Store.Snapshot()
	rec := res.Store.Snapshot()
	for k, v := range live {
		rv, ok := rec[k]
		if !ok {
			return res, fmt.Errorf("live key %q missing from replay", k)
		}
		if string(rv) != string(v) {
			return res, fmt.Errorf("key %q: live %q, replay %q", k, v, rv)
		}
	}
	if len(rec) != len(live) {
		return res, fmt.Errorf("replay yields %d keys, live store has %d", len(rec), len(live))
	}
	return res, nil
}

// mustAppend logs records or panics: a write the log cannot take must not
// be served as durable, so a WAL write error fail-stops the edge (in the
// simulation it is a harness bug — an unwritable temp dir — not a modeled
// fault). Data records also advance the partition's live last-writer
// index, which deferred in-doubt resolutions consult. The partition lock
// is held across the append so a concurrent Checkpoint cannot swap the log
// out from under a half-written batch.
func (p *Partition) mustAppend(recs ...wal.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appendLocked(recs...)
}

func (p *Partition) appendLocked(recs ...wal.Record) {
	if p.WAL == nil {
		return
	}
	for _, r := range recs {
		if r.Op == wal.OpPut || r.Op == wal.OpDelete {
			p.walDataSeq++
			if p.walLastData == nil {
				p.walLastData = make(map[string]int64)
			}
			p.walLastData[r.Key] = p.walDataSeq
		}
	}
	if err := p.WAL.AppendBatch(recs); err != nil {
		panic(fmt.Sprintf("twopc: partition %d wal append: %v", p.ID, err))
	}
	p.WALAppends.Add(int64(len(recs)))
}

// RedoRecords captures the redo batch for a section commit: the current
// store value of every key reqs lock exclusively, read under those
// still-held locks, in request order (a route's batch lists its requests
// in key order). The values are the store's own (store.Peek): stored values
// are never modified in place, so the records need no copies. The batch
// has room for the marker StagePrepare appends, so that append does not
// reallocate.
func (p *Partition) RedoRecords(cr CommitRound, reqs []lock.Request) []wal.Record {
	return p.appendRedo(make([]wal.Record, 0, len(reqs)+1), cr, reqs)
}

func (p *Partition) appendRedo(recs []wal.Record, cr CommitRound, reqs []lock.Request) []wal.Record {
	for _, r := range reqs {
		if r.Mode != lock.Exclusive {
			continue
		}
		if v, ok := p.Store.Peek(r.Key); ok {
			recs = append(recs, wal.Record{Op: wal.OpPut, Txn: uint64(cr.ID), Round: cr.Round, Key: r.Key, Value: v})
		} else {
			recs = append(recs, wal.Record{Op: wal.OpDelete, Txn: uint64(cr.ID), Round: cr.Round, Key: r.Key})
		}
	}
	return recs
}

// LogLocalCommit durably commits a single-partition section holding the
// locks reqs: the redo records of its write set (see RedoRecords) and the
// commit marker land in one batch, so a torn tail can only lose the whole
// commit (presumed abort), never half of it. The batch is built in a buffer
// the partition reuses under its lock, so a commit allocates nothing here.
func (p *Partition) LogLocalCommit(cr CommitRound, reqs []lock.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.redo = append(p.appendRedo(p.redo[:0], cr, reqs), wal.Record{Op: wal.OpCommit, Txn: uint64(cr.ID), Round: cr.Round})
	p.appendLocked(p.redo...)
	clear(p.redo) // hold no keys or values past the append
}

// StagePrepare stages a participant's share of a multi-partition commit:
// data records plus the prepare marker (naming the coordinator) in one
// durable batch, and the block remembered in memory until the decision.
func (p *Partition) StagePrepare(cr CommitRound, coord int, recs []wal.Record) {
	p.mustAppend(append(recs, wal.Record{Op: wal.OpPrepare, Txn: uint64(cr.ID), Round: cr.Round, Coord: coord})...)
	p.mu.Lock()
	if p.walStaged == nil {
		p.walStaged = make(map[CommitRound]*walStage)
	}
	p.walStaged[cr] = &walStage{coord: coord, recs: recs}
	p.mu.Unlock()
}

// LogDecision records this partition's durable commit/abort decision as the
// coordinator of cr's atomic commitment. Participants in doubt inquire here.
func (p *Partition) LogDecision(cr CommitRound, commit bool) {
	op := wal.OpAbort
	if commit {
		op = wal.OpCommit
	}
	p.mustAppend(wal.Record{Op: op, Txn: uint64(cr.ID), Round: cr.Round})
	p.mu.Lock()
	if p.decisions == nil {
		p.decisions = make(map[CommitRound]bool)
	}
	p.decisions[cr] = commit
	p.mu.Unlock()
}

// Decision reports the outcome this partition decided (as coordinator) for
// exactly the round cr, and whether any decision is known. Unknown means
// presumed abort for an inquiring participant; the same transaction's other
// commit round never answers for this one.
func (p *Partition) Decision(cr CommitRound) (commit, known bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	commit, known = p.decisions[cr]
	return commit, known
}

// DeliverDecision completes a staged block: the decision marker is logged
// and the block cleared. A recovery-restaged commit applies its writes (the
// rebuilt store does not have them) — except writes whose key logged a
// newer data record while the block sat in doubt, which are superseded
// (last-writer-wins by log position, matching wal.Recover). A live block's
// writes were applied eagerly during the section, and an aborted live
// block was already undone by the coordinator's retraction.
func (p *Partition) DeliverDecision(cr CommitRound, commit bool) {
	p.mu.Lock()
	st := p.walStaged[cr]
	delete(p.walStaged, cr)
	var lastData map[string]int64
	if st != nil && commit && st.fromRecovery {
		lastData = make(map[string]int64, len(st.recs))
		for _, r := range st.recs {
			lastData[r.Key] = p.walLastData[r.Key]
		}
	}
	p.mu.Unlock()
	if st == nil {
		return
	}
	if commit && st.fromRecovery {
		for _, r := range st.recs {
			if lastData[r.Key] > st.stagedAt {
				continue // superseded while in doubt
			}
			switch r.Op {
			case wal.OpPut:
				p.Store.Put(r.Key, r.Value)
			case wal.OpDelete:
				p.Store.Delete(r.Key)
			}
		}
	}
	op := wal.OpAbort
	if commit {
		op = wal.OpCommit
	}
	p.mustAppend(wal.Record{Op: op, Txn: uint64(cr.ID), Round: cr.Round})
}

// Restage re-installs an in-doubt block found by crash recovery, to be
// resolved by DeliverDecision once the coordinator's outcome is known. The
// current data-record sequence is stamped so a resolution — possibly much
// later, deferred across a link partition — can tell which staged writes
// newer records superseded in the meantime.
func (p *Partition) Restage(cr CommitRound, coord int, recs []wal.Record) {
	p.mu.Lock()
	if p.walStaged == nil {
		p.walStaged = make(map[CommitRound]*walStage)
	}
	p.walStaged[cr] = &walStage{coord: coord, recs: recs, fromRecovery: true, stagedAt: p.walDataSeq}
	p.mu.Unlock()
}

// StagedBy lists the staged commit rounds coordinated by coord, ascending
// by (txn, round).
func (p *Partition) StagedBy(coord int) []CommitRound {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []CommitRound
	for cr, st := range p.walStaged {
		if st.coord == coord {
			out = append(out, cr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// StagedCoords lists the distinct coordinators of every staged block,
// ascending — what an end-of-run sweep iterates to drain the fleet.
func (p *Partition) StagedCoords() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[int]bool{}
	for _, st := range p.walStaged {
		seen[st.coord] = true
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Checkpoint rewrites this partition's write-ahead log as a compact
// equivalent — the full committed store snapshot as non-transactional puts,
// the durable decision cache (so in-doubt peers can still inquire here),
// and any recovery-restaged in-doubt blocks (data records plus prepare
// marker, minus writes newer records already superseded) — atomically
// replacing the old log. Recovery from the new log reaches exactly the
// state recovery from the old one would, but replays only the live records.
// The snapshot is bounded by the keyspace; the decision cache is not: every
// commit decision this partition ever coordinated is kept and written again
// at every checkpoint, so a long-running fleet's log, and with it replay
// time, still grows with the rounds it has decided (ROADMAP item 21).
//
// A checkpoint is skipped (ok false) while a *live* 2PC block is staged:
// its eager writes are in the store but its pre-images are not, so a
// snapshot taken mid-round could not represent the abort outcome. The
// caller retries after the round's decision lands. A local section that
// has not reached its commit round does not stop a checkpoint, so the
// snapshot holds its eager writes: a crash before that commit recovers
// them, possibly half a section (ROADMAP item 10).
func (p *Partition) Checkpoint() (records int, ok bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.WAL == nil {
		return 0, false, nil
	}
	for _, st := range p.walStaged {
		if !st.fromRecovery {
			return 0, false, nil
		}
	}

	snap := p.Store.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]wal.Record, 0, len(keys)+len(p.decisions))
	for _, k := range keys {
		recs = append(recs, wal.Record{Op: wal.OpPut, Key: k, Value: snap[k]})
	}
	crs := make([]CommitRound, 0, len(p.decisions))
	for cr := range p.decisions {
		crs = append(crs, cr)
	}
	sort.Slice(crs, func(i, j int) bool { return crs[i].less(crs[j]) })
	for _, cr := range crs {
		op := wal.OpAbort
		if p.decisions[cr] {
			op = wal.OpCommit
		}
		recs = append(recs, wal.Record{Op: op, Txn: uint64(cr.ID), Round: cr.Round})
	}
	staged := make([]CommitRound, 0, len(p.walStaged))
	for cr := range p.walStaged {
		staged = append(staged, cr)
	}
	sort.Slice(staged, func(i, j int) bool { return staged[i].less(staged[j]) })
	// Per-block live write sets, superseded writes already dropped; the
	// blocks re-stage over the new log's positions below.
	liveRecs := make([][]wal.Record, len(staged))
	for i, cr := range staged {
		st := p.walStaged[cr]
		for _, r := range st.recs {
			if p.walLastData[r.Key] > st.stagedAt {
				continue
			}
			liveRecs[i] = append(liveRecs[i], r)
		}
		block := append(append([]wal.Record{}, liveRecs[i]...),
			wal.Record{Op: wal.OpPrepare, Txn: uint64(cr.ID), Round: cr.Round, Coord: st.coord})
		recs = append(recs, block...)
	}

	path := p.WAL.Path()
	noSync := p.WAL.NoSync
	if err := p.WAL.Close(); err != nil {
		return 0, false, err
	}
	if err := wal.Rewrite(path, recs, noSync); err != nil {
		return 0, false, err
	}
	log, err := wal.Open(path)
	if err != nil {
		return 0, false, err
	}
	log.NoSync = noSync
	p.WAL = log

	// Rebuild the last-writer index over the new log's positions and
	// re-stamp the restaged blocks, preserving log-order supersession.
	p.walDataSeq = 0
	p.walLastData = make(map[string]int64, len(keys))
	bump := func(rs []wal.Record) {
		for _, r := range rs {
			if r.Op == wal.OpPut || r.Op == wal.OpDelete {
				p.walDataSeq++
				p.walLastData[r.Key] = p.walDataSeq
			}
		}
	}
	for _, k := range keys {
		p.walDataSeq++
		p.walLastData[k] = p.walDataSeq
	}
	for i, cr := range staged {
		st := p.walStaged[cr]
		st.recs = liveRecs[i]
		bump(st.recs)
		st.stagedAt = p.walDataSeq
	}
	return len(recs), true, nil
}

// CloseWAL closes the partition's current log (checkpoints may have swapped
// it since provisioning), releasing the file handle.
func (p *Partition) CloseWAL() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.WAL == nil {
		return nil
	}
	return p.WAL.Close()
}

// CrashReset drops every piece of volatile protocol state — staged blocks,
// prepare votes, the decision cache — modeling the fail-stop loss of the
// edge process's memory. The WAL (and the store object, which recovery
// rebuilds in place) survive.
func (p *Partition) CrashReset() {
	p.mu.Lock()
	p.walStaged = nil
	p.decisions = nil
	p.mu.Unlock()
}

// JournaledShardedStore wraps a ShardedStore so every mutation is also
// appended to the owning partition's WAL as a non-transactional record,
// which recovery applies unconditionally. It is only ever the RestoreDB of
// a durable fleet's transaction manager (a standalone durable edge's too):
// retraction cascades and aborted sections re-install before-images
// through it, so a partition recovered from its log agrees with the live
// store even after a cascade crossed it. Section writes go through the
// plain ShardedStore and reach the log at their commit round, so a crash
// image never holds half a section between checkpoints (see Checkpoint).
type JournaledShardedStore struct {
	*ShardedStore
}

// Put journals then applies. The route is resolved once (behind the shard
// map's cutover barrier) so the journal record and the live write land on
// the same partition even while a migration rebinds the shard. Both happen
// under one hold of the partition lock: a Checkpoint in between would
// snapshot the old value while the live store took the new one.
func (s JournaledShardedStore) Put(key string, v store.Value) uint64 {
	p := s.Parts[s.route(key)]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appendLocked(wal.Record{Op: wal.OpPut, Key: key, Value: v})
	return p.Store.Put(key, v)
}

// Delete journals then applies, like Put.
func (s JournaledShardedStore) Delete(key string) bool {
	p := s.Parts[s.route(key)]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appendLocked(wal.Record{Op: wal.OpDelete, Key: key})
	return p.Store.Delete(key)
}
