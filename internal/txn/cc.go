package txn

import "slices"

// CC is a multi-stage concurrency-control protocol. The pipeline wraps the
// initial section in RunInitial (triggered by edge labels) and the final
// section in RunFinal (triggered by corrected cloud labels) — the CC.initial
// and CC.final blocks of §3.3. The graph executor instead drives every
// boundary through RunSection; RunInitial and RunFinal are exactly
// RunSection(in, 0) and RunSection(in, last).
type CC interface {
	// RunInitial executes the initial section under the protocol's rules.
	// It returns ErrAborted when locks could not be acquired (no-wait
	// policy) or the error returned by the section body; on nil the
	// instance has initially committed.
	RunInitial(in *Instance) error
	// RunFinal executes the final section. The instance must have
	// initially committed; on nil it has finally committed.
	RunFinal(in *Instance) error
	// RunSection executes section k of an N-section transaction. Section 0
	// follows RunInitial's rules; the last section follows RunFinal's;
	// middle sections commit a boundary each under the protocol's locking
	// discipline (MS-SR: under the locks held since section 0; MS-IA: with
	// their own locks, commit, release).
	RunSection(in *Instance, k int) error
}

// The methods below are the seam a CC drives a transaction through: they
// expose exactly the section-execution and lifecycle transitions a
// protocol needs, so twopc.ShardedCC, every edge's concurrency control,
// keeps undo logging, dependency tracking, stats, and the commit history
// consistent with the manager.

// ExecSection runs the stage's body with a fresh section context. It
// performs no locking and no state transition — the caller is the protocol.
func (m *Manager) ExecSection(in *Instance, stage Stage) error {
	return in.T.SectionAt(int(stage)).Body(in.sectionCtx(stage))
}

// MarkAborted undoes the instance's writes, moves it to aborted and records
// the abort. The undo is the instance's own log alone, newest write first,
// through the backend retractions restore through (a durable node journals
// it): no cascade and no apology, because the caller still holds the
// instance's locks, so nothing has read what it undoes. Call it before
// releasing them.
func (m *Manager) MarkAborted(in *Instance) {
	m.mu.Lock()
	recs := in.undo[in.undone:]
	in.undone = len(in.undo)
	slices.Reverse(recs)
	m.mu.Unlock()
	m.restore(recs)
	m.mu.Lock()
	for i := range recs {
		recs[i].prev = nil // only the key stays, as after a retraction
	}
	in.mu.Lock()
	in.state = StateAborted
	in.inBody = false
	in.mu.Unlock()
	m.stats.Aborts++
	m.retire(in)
	m.mu.Unlock()
}

// Policy selects how MS-SR acquires its locks (twopc.ShardedCC.Policy).
type Policy int

// Lock acquisition policies.
const (
	// Wait blocks until locks are granted, under the wait-die discipline:
	// because MS-SR holds locks from the initial commit to the final
	// commit (across the cloud round trip), plain blocking acquisition
	// could deadlock with concurrently arriving transactions; wait-die
	// lets older transactions wait and aborts younger ones instead. The
	// union of both sections' locks is acquired up front — permissible
	// because Algorithm 1 requires every final-section lock before the
	// initial commit anyway, so the initial commit point is unchanged.
	Wait Policy = iota
	// NoWait aborts the section when any lock is unavailable — the abort
	// behaviour measured in Figure 6(b). Acquisition follows Algorithm 1
	// literally: initial locks, execute, then final locks.
	NoWait
)

// MSSR is a reference implementation of multi-stage serializability with
// Two Stage 2PL (Algorithm 1) over a bare manager, for callers that cannot
// build an edge through internal/node (this package's own tests and the
// benchmark's layer measurements); every edge commits through
// twopc.ShardedCC. It acquires every section's locks under wait-die before
// the first section executes and holds them to the last commit, which
// guarantees:
//
//	(a) for conflicting tk, tj with si_k <h si_j: si_k <h sf_k <h sf_j, and
//	(b) if sf_k conflicts with si_j, then sf_k <h si_j,
//
// at the cost of holding locks across the edge→cloud round trip. Policy
// must be Wait: the no-wait policy is twopc.ShardedCC's.
type MSSR struct {
	M      *Manager
	Policy Policy
}

// RunInitial performs the first half of Algorithm 1 and leaves every lock
// held for RunFinal.
func (p *MSSR) RunInitial(in *Instance) error { return p.RunSection(in, 0) }

// RunFinal executes the final section, final-commits, and releases every
// lock held since the initial section.
func (p *MSSR) RunFinal(in *Instance) error { return p.RunSection(in, in.T.LastSection()) }

// MSIA is a reference implementation of multi-stage invariant confluence
// with apologies (Algorithm 2) over a bare manager, kept for the same
// callers as MSSR: each section acquires only its own locks and releases
// them at its own commit, so the initial commit never waits on the cloud
// and lock hold times stay in the order of the section execution itself —
// the contrast measured in Figure 6(a).
type MSIA struct {
	M *Manager
}

// RunInitial locks the initial set, executes, initial-commits, releases.
func (p *MSIA) RunInitial(in *Instance) error { return p.RunSection(in, 0) }

// RunFinal locks the final set, executes the apology/merge logic,
// final-commits, releases. Blocking acquisition means the final section
// always commits, preserving the multi-stage guarantee.
func (p *MSIA) RunFinal(in *Instance) error { return p.RunSection(in, in.T.LastSection()) }
