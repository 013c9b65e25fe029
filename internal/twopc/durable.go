// Durable partitions: the one write-ahead-log backend, serving both the
// simulated sharded fleet and a standalone croesus edge (a one-partition
// fleet, node.NewDurable, that commits through ShardedCC like any other).
// When a Partition carries a WAL, every section commit it participates in
// is logged — single-partition commits as a data batch closed by a commit
// marker, multi-partition commits as the participant's staged block (data
// records + prepare marker), the coordinator's decision and the
// participant's outcome marker — so a crashed edge rebuilds exactly the
// committed state with Recover and resolves prepared-but-undecided rounds
// against the coordinator's log (presumed abort: no durable commit
// decision for that round means abort; a decision is forgotten once every
// participant has logged it). Callers open a log only through OpenWAL and
// judge one only through VerifyWAL.
//
// A multi-stage transaction runs up to two independent atomic-commitment
// rounds (MS-IA commits at both section boundaries), so all durable state
// here — markers, staged blocks, the decision cache — is keyed by
// CommitRound, never by transaction id alone: an in-doubt final-round
// block must not resolve from the initial round's commit marker.
package twopc

import (
	"fmt"
	"slices"
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
	// While a restaged block waits, a data record appended for one of its
	// keys (a retraction restore, a later transaction's commit — the crash
	// freed this block's locks) supersedes that staged write, which is
	// dropped from recs: last-writer-wins by log position, exactly as
	// wal.Recover resolves.
	fromRecovery bool
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
// commit decisions it logged as a coordinator and has not retired, each
// awaiting participants not yet known (see Await). Prepared-but-undecided
// rounds come back in InDoubt, to be re-staged (Restage) and resolved
// against their coordinators.
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
	p.decisions = make(map[CommitRound][]int, len(res.Decided))
	for _, k := range res.Decided {
		p.decisions[CommitRound{ID: txn.ID(k.Txn), Round: k.Round}] = nil
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
// fault). Pending end records join the batch, so they cost no write of
// their own, and while a restaged block waits, data records drop the
// staged writes they supersede. The partition lock is held across the
// append so a concurrent Checkpoint cannot swap the log out from under a
// half-written batch.
func (p *Partition) mustAppend(recs ...wal.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appendLocked(recs...)
}

func (p *Partition) appendLocked(recs ...wal.Record) {
	if p.WAL == nil {
		return
	}
	if p.restaged > 0 {
		for _, r := range recs {
			if r.Op == wal.OpPut || r.Op == wal.OpDelete {
				p.supersede(r.Key)
			}
		}
	}
	recs = append(recs, p.ends...) // past every caller's len: no record of theirs moves
	p.ends = p.ends[:0]
	if err := p.WAL.AppendBatch(recs); err != nil {
		panic(fmt.Sprintf("twopc: partition %d wal append: %v", p.ID, err))
	}
	p.WALAppends.Add(int64(len(recs)))
}

// supersede drops key's staged write from every restaged block: a newer
// data record for it is being logged.
func (p *Partition) supersede(key string) {
	for _, st := range p.walStaged {
		if st.fromRecovery {
			st.recs = slices.DeleteFunc(st.recs, func(w wal.Record) bool { return w.Key == key })
		}
	}
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
	p.stage(cr, &walStage{coord: coord, recs: recs})
}

func (p *Partition) stage(cr CommitRound, st *walStage) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.walStaged == nil {
		p.walStaged = make(map[CommitRound]*walStage)
	}
	if old := p.walStaged[cr]; old != nil && old.fromRecovery {
		p.restaged--
	}
	if st.fromRecovery {
		p.restaged++
	}
	p.walStaged[cr] = st
}

// LogDecision durably logs this partition's commit decision as the
// coordinator of cr's atomic commitment (presumed abort: an abort is never
// logged). Participants in doubt inquire here until the round is forgotten;
// the caller names the participants still to log the decision with Await.
func (p *Partition) LogDecision(cr CommitRound) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appendLocked(wal.Record{Op: wal.OpCommit, Txn: uint64(cr.ID), Round: cr.Round})
	if p.decisions == nil {
		p.decisions = make(map[CommitRound][]int)
	}
	p.decisions[cr] = nil
}

// Await names the participants of cr, a decision this partition holds,
// whose decision marker is not yet durable; Acked retires them one by one.
// With none the round is forgotten at once: it leaves the cache, and its
// end record rides the partition's next batch, so neither a checkpoint nor
// recovery brings it back.
func (p *Partition) Await(cr CommitRound, parts []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.decisions[cr]; !ok {
		return // lost to a crash since it was logged: recovery owns it
	}
	if len(parts) == 0 {
		p.forgetLocked(cr)
		return
	}
	p.decisions[cr] = slices.Clone(parts)
}

// Acked notes that participant part has durably logged cr's decision
// marker; the round is forgotten once no awaited participant is left.
func (p *Partition) Acked(cr CommitRound, part int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	parts := p.decisions[cr]
	i := slices.Index(parts, part)
	if i < 0 {
		return
	}
	if parts = slices.Delete(parts, i, i+1); len(parts) > 0 {
		p.decisions[cr] = parts
		return
	}
	p.forgetLocked(cr)
}

func (p *Partition) forgetLocked(cr CommitRound) {
	delete(p.decisions, cr)
	if p.WAL != nil {
		p.ends = append(p.ends, wal.Record{Op: wal.OpEnd, Txn: uint64(cr.ID), Round: cr.Round})
	}
}

// Decided reports whether this partition holds a commit decision, as
// coordinator, for exactly the round cr. No means presumed abort to an
// inquiring participant once the round can no longer be in flight; the
// same transaction's other commit round never answers for this one.
func (p *Partition) Decided(cr CommitRound) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.decisions[cr]
	return ok
}

// DeliverDecision completes a staged block: the outcome marker is logged
// and the block cleared. A recovery-restaged commit applies its writes (the
// rebuilt store does not have them), less those a newer data record
// superseded while it sat in doubt (see walStage). A live block's writes
// were applied eagerly during the section, and an aborted live block was
// already undone by the coordinator's retraction. The coordinator's own
// live block logs no marker on commit: its decision record, logged on this
// same log, already commits it here.
func (p *Partition) DeliverDecision(cr CommitRound, commit bool) {
	p.mu.Lock()
	st := p.walStaged[cr]
	if st != nil {
		delete(p.walStaged, cr)
		if st.fromRecovery {
			p.restaged--
		}
	}
	p.mu.Unlock()
	if st == nil {
		return
	}
	if commit && st.fromRecovery {
		for _, r := range st.recs {
			switch r.Op {
			case wal.OpPut:
				p.Store.Put(r.Key, r.Value)
			case wal.OpDelete:
				p.Store.Delete(r.Key)
			}
		}
	}
	switch {
	case !commit:
		p.mustAppend(wal.Record{Op: wal.OpAbort, Txn: uint64(cr.ID), Round: cr.Round})
	case st.coord != p.ID || st.fromRecovery:
		p.mustAppend(wal.Record{Op: wal.OpDelivered, Txn: uint64(cr.ID), Round: cr.Round})
	}
}

// Restage re-installs an in-doubt block found by crash recovery, to be
// resolved by DeliverDecision once the coordinator's outcome is known —
// possibly much later, deferred across a link partition. It takes recs:
// data records logged meanwhile drop the writes they supersede from it.
func (p *Partition) Restage(cr CommitRound, coord int, recs []wal.Record) {
	p.stage(cr, &walStage{coord: coord, recs: recs, fromRecovery: true})
}

// StagedBy lists the staged commit rounds coordinated by coord, ascending
// by (txn, round).
func (p *Partition) StagedBy(coord int) []CommitRound {
	p.mu.Lock()
	defer p.mu.Unlock()
	return sortedRounds(p.walStaged, func(st *walStage) bool { return st.coord == coord })
}

// sortedRounds returns, ascending, the rounds of m that keep (nil: all) accepts.
func sortedRounds[V any](m map[CommitRound]V, keep func(V) bool) []CommitRound {
	var out []CommitRound
	for cr, v := range m {
		if keep == nil || keep(v) {
			out = append(out, cr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Checkpoint rewrites this partition's write-ahead log as a compact
// equivalent — the full committed store snapshot as non-transactional puts,
// the commit decisions some participant has yet to log (so in-doubt peers
// can still inquire here), and any recovery-restaged in-doubt blocks (data
// records plus prepare marker, minus writes newer records superseded) —
// atomically replacing the old log. Recovery from the new log reaches
// exactly the state recovery from the old one would, but replays only the
// live records: the snapshot is bounded by the keyspace, the decisions by
// the rounds in flight (decisions are forgotten once every participant has
// logged them), and the blocks by the rounds in doubt. This is what bounds
// replay time on a long-running fleet.
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
	for _, cr := range sortedRounds(p.decisions, nil) {
		recs = append(recs, wal.Record{Op: wal.OpCommit, Txn: uint64(cr.ID), Round: cr.Round})
	}
	for _, cr := range sortedRounds(p.walStaged, nil) {
		st := p.walStaged[cr]
		recs = append(recs, st.recs...)
		recs = append(recs, wal.Record{Op: wal.OpPrepare, Txn: uint64(cr.ID), Round: cr.Round, Coord: st.coord})
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
	p.ends = p.ends[:0] // the new log holds no forgotten round to end
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
// prepare votes, the decision cache, unlogged end records — modeling the
// fail-stop loss of the edge process's memory. The WAL (and the store object, which recovery
// rebuilds in place) survive.
func (p *Partition) CrashReset() {
	p.mu.Lock()
	p.walStaged, p.restaged = nil, 0
	p.decisions, p.ends = nil, nil
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
