package txn

import (
	"fmt"

	"croesus/internal/lock"
	"croesus/internal/obs"
)

// This file generalizes the two-stage transaction of §4 to N sections over
// an inference graph. A Txn may declare an ordered []SectionSpec instead of
// the classic Initial/Final pair; every protocol then runs the transaction
// through RunSection boundaries:
//
//   - MS-SR acquires the union of every section's locks before the first
//     commit and holds them to the last — the Two Stage 2PL guarantee
//     stretched over the whole graph.
//   - MS-IA locks, executes, and commits each section independently; a
//     retraction at section k undoes the visible effects of sections 1..k
//     (the undo log spans all sections, so Manager.Retract needs no change).
//
// A Txn with no Sections is exactly the classic two-section transaction:
// section 0 is the initial section on the edge tier, section 1 the final
// section on the cloud tier, and every RunSection path reduces to the same
// lock, clock, and commit operations the two-stage code performed.

// Tier names the placement of one section's trigger in the fleet: the edge
// that ingested the frame, a peer edge reached over the inter-edge mesh, or
// the cloud validator.
type Tier int

// Placement tiers.
const (
	TierEdge Tier = iota
	TierPeer
	TierCloud
)

func (t Tier) String() string {
	switch t {
	case TierEdge:
		return "edge"
	case TierPeer:
		return "peer"
	case TierCloud:
		return "cloud"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// ParseTier parses "edge", "peer", or "cloud".
func ParseTier(s string) (Tier, error) {
	switch s {
	case "edge":
		return TierEdge, nil
	case "peer":
		return TierPeer, nil
	case "cloud":
		return TierCloud, nil
	default:
		return 0, fmt.Errorf("txn: unknown tier %q (want edge, peer, or cloud)", s)
	}
}

// SectionSpec declares one section of an N-section transaction: a name for
// reports, the tier whose model output triggers it, its declared read/write
// set, and its body.
type SectionSpec struct {
	Name string
	Tier Tier
	RW   RWSet
	Body Section
}

// NumSections returns how many sections the transaction has (2 for a
// classic Initial/Final transaction).
func (t *Txn) NumSections() int {
	if len(t.Sections) > 0 {
		return len(t.Sections)
	}
	return 2
}

// LastSection returns the index of the transaction's last section.
func (t *Txn) LastSection() int { return t.NumSections() - 1 }

// SectionAt returns section k's spec. For a classic transaction it
// synthesizes the canonical pair: the initial section on the edge, the
// final section on the cloud.
func (t *Txn) SectionAt(k int) SectionSpec {
	if len(t.Sections) > 0 {
		return t.Sections[k]
	}
	if k == 0 {
		return SectionSpec{Name: "initial", Tier: TierEdge, RW: t.InitialRW, Body: t.Initial}
	}
	return SectionSpec{Name: "final", Tier: TierCloud, RW: t.FinalRW, Body: t.Final}
}

// AllRW unions every section's declared set — what MS-SR locks up front.
func (t *Txn) AllRW() RWSet {
	if len(t.Sections) == 0 {
		return t.InitialRW.Union(t.FinalRW)
	}
	out := t.Sections[0].RW
	for _, s := range t.Sections[1:] {
		out = out.Union(s.RW)
	}
	return out
}

// laterRequests returns the normalized union of the lock requests of
// sections from..last — the locks MS-SR must add before the first commit.
func (t *Txn) laterRequests(from int) []lock.Request {
	if from == t.LastSection() {
		return t.SectionAt(from).RW.Requests()
	}
	var all []lock.Request
	for k := from; k < t.NumSections(); k++ {
		all = append(all, t.SectionAt(k).RW.Requests()...)
	}
	return lock.Normalize(all)
}

// SetSectionIn installs section k's input before the section runs (the
// graph executor's per-node labels). Sections 0 and last alias the classic
// InitialIn and FinalIn fields.
func (in *Instance) SetSectionIn(k int, v any) {
	last := in.T.LastSection()
	switch {
	case k == 0:
		in.InitialIn = v
	case k == last:
		in.FinalIn = v
	default:
		in.mu.Lock()
		if in.sectionIn == nil {
			in.sectionIn = make(map[int]any)
		}
		in.sectionIn[k] = v
		in.mu.Unlock()
	}
}

// sectionInput returns section k's input.
func (in *Instance) sectionInput(k int) any {
	switch {
	case k == 0:
		return in.InitialIn
	case k == in.T.LastSection():
		return in.FinalIn
	default:
		in.mu.Lock()
		defer in.mu.Unlock()
		return in.sectionIn[k]
	}
}

// CommittedSections reports how many section boundaries have committed.
func (in *Instance) CommittedSections() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.committed
}

// MarkSectionCommitted records section k's boundary commit: the first
// boundary moves the instance to initial-committed, the last to
// final-committed (retraction is sticky), middle boundaries record the
// commit without a state change. It reports whether the instance is
// (terminally) retracted at this boundary. This is the per-boundary seam
// external protocols (twopc.ShardedCC) drive.
func (m *Manager) MarkSectionCommitted(in *Instance, k int) (retracted bool) {
	last := in.T.LastSection()
	m.mu.Lock()
	defer m.mu.Unlock()
	in.mu.Lock()
	in.inBody = false
	if k == 0 && k < last {
		in.state = StateInitialCommitted
	}
	retracted = in.state == StateRetracted
	if k == last && !retracted {
		in.state = StateFinalCommitted
	}
	in.committed = k + 1
	in.mu.Unlock()

	m.recordHistory(HistoryEntry{Txn: in.ID, Stage: Stage(k)})
	if k == 0 {
		m.stats.InitialCommits++
	}
	if k == last {
		m.stats.FinalCommits++
	} else if k > 0 {
		m.stats.SectionCommits++
	}
	if k == last || retracted {
		m.retire(in) // no later section will run a body
	}
	return retracted
}

// RunSection executes section k of an N-section transaction under MS-SR:
// section 0 acquires the union of every section's locks (wait-die or
// no-wait per the policy) and every later section runs under those held
// locks until the last boundary releases them.
func (p *MSSR) RunSection(in *Instance, k int) error {
	last := in.T.LastSection()
	if k == 0 {
		return p.runFirst(in)
	}
	releaseHeld := func() {
		in.mu.Lock()
		held := in.heldReqs
		in.heldReqs = nil
		in.mu.Unlock()
		p.M.Locks.ReleaseAll(lock.Owner(in.ID), held)
	}
	switch s := in.State(); s {
	case StateInitialCommitted:
	case StateRetracted:
		releaseHeld() // a cascade got here first; don't leak the 2PL locks
		return ErrRetracted
	default:
		return fmt.Errorf("txn %d: RunSection(%d) in state %s", in.ID, k, s)
	}
	if err := sectionInOrder(in, k); err != nil {
		return err
	}
	ctx := in.sectionCtx(Stage(k))
	err := in.T.SectionAt(k).Body(ctx)
	// The multi-stage contract: an initially-committed transaction commits
	// every remaining boundary. A section error here is the programmer's
	// apology logic failing, not a concurrency abort; the boundary still
	// commits (unless the section retracted the transaction, terminally).
	retracted := p.M.MarkSectionCommitted(in, k)
	if k == last {
		releaseHeld()
	} else if retracted {
		releaseHeld()
	}
	if err == nil && retracted {
		return ErrRetracted
	}
	return err
}

// runFirst is MS-SR's section 0: acquire everything, execute, commit the
// first boundary with every lock still held (a single-section transaction
// releases immediately — there is nothing left to protect).
func (p *MSSR) runFirst(in *Instance) error {
	if s := in.State(); s != StatePending {
		return fmt.Errorf("txn %d: RunInitial in state %s", in.ID, s)
	}
	owner := lock.Owner(in.ID)
	// Keys needed by later sections are taken at the stronger mode from
	// the start, so the later-lock step never needs an in-place upgrade.
	later := in.T.laterRequests(1)
	initReqs := strengthen(in.T.SectionAt(0).RW.Requests(), later)
	extraReqs := newKeys(initReqs, later)
	allReqs := lock.Normalize(append(append([]lock.Request{}, initReqs...), extraReqs...))

	tAcq := p.M.now()
	if p.Policy == Wait {
		if !p.M.Locks.AcquireAllWaitDie(owner, allReqs) {
			now := p.M.now()
			in.AddLockWait(now - tAcq)
			p.M.Tracer.EmitCtx(in.Trace, obs.SpanLockAbort, p.M.TraceTags, tAcq, now)
			p.M.MarkAborted(in)
			return ErrAborted
		}
	} else {
		if !p.M.Locks.TryAcquireAll(owner, initReqs) {
			in.AddLockWait(p.M.now() - tAcq)
			p.M.MarkAborted(in)
			return ErrAborted
		}
	}
	in.AddLockWait(p.M.now() - tAcq)

	ctx := in.sectionCtx(StageInitial)
	if err := in.T.SectionAt(0).Body(ctx); err != nil {
		if p.Policy == Wait {
			p.M.Locks.ReleaseAll(owner, allReqs)
		} else {
			p.M.Locks.ReleaseAll(owner, initReqs)
		}
		p.M.MarkAborted(in)
		return err
	}

	if p.Policy == NoWait {
		// Algorithm 1: every later section's locks must be acquired before
		// the first commit, guaranteeing the remaining sections will commit.
		tExtra := p.M.now()
		if !p.M.Locks.TryAcquireAll(owner, extraReqs) {
			in.AddLockWait(p.M.now() - tExtra)
			p.M.Locks.ReleaseAll(owner, initReqs)
			p.M.MarkAborted(in)
			return ErrAborted
		}
		in.AddLockWait(p.M.now() - tExtra)
	}

	if in.T.LastSection() == 0 {
		retracted := p.M.MarkSectionCommitted(in, 0)
		p.M.Locks.ReleaseAll(owner, allReqs)
		if retracted {
			return ErrRetracted
		}
		return nil
	}
	in.mu.Lock()
	in.heldReqs = allReqs
	in.mu.Unlock()
	p.M.MarkSectionCommitted(in, 0)
	return nil
}

// RunSection executes section k under MS-IA: acquire section k's own
// locks (blocking), execute, commit the boundary, release — every boundary
// is independent, which is what lets a later retraction cascade back
// through the already-visible earlier boundaries.
func (p *MSIA) RunSection(in *Instance, k int) error {
	if k == 0 {
		return p.runFirst(in)
	}
	switch s := in.State(); s {
	case StateInitialCommitted:
	case StateRetracted:
		return ErrRetracted
	default:
		return fmt.Errorf("txn %d: RunSection(%d) in state %s", in.ID, k, s)
	}
	if err := sectionInOrder(in, k); err != nil {
		return err
	}
	owner := lock.Owner(in.ID)
	reqs := in.T.SectionAt(k).RW.Requests()
	tAcq := p.M.now()
	p.M.Locks.AcquireAll(owner, reqs)
	in.AddLockWait(p.M.now() - tAcq)
	ctx := in.sectionCtx(Stage(k))
	err := in.T.SectionAt(k).Body(ctx)
	retracted := p.M.MarkSectionCommitted(in, k)
	p.M.Locks.ReleaseAll(owner, reqs)
	if err == nil && retracted {
		return ErrRetracted
	}
	return err
}

// runFirst is MS-IA's section 0: lock, execute, commit, release.
func (p *MSIA) runFirst(in *Instance) error {
	if s := in.State(); s != StatePending {
		return fmt.Errorf("txn %d: RunInitial in state %s", in.ID, s)
	}
	owner := lock.Owner(in.ID)
	reqs := in.T.SectionAt(0).RW.Requests()
	tAcq := p.M.now()
	p.M.Locks.AcquireAll(owner, reqs)
	in.AddLockWait(p.M.now() - tAcq)
	ctx := in.sectionCtx(StageInitial)
	err := in.T.SectionAt(0).Body(ctx)
	if err != nil {
		p.M.Locks.ReleaseAll(owner, reqs)
		p.M.MarkAborted(in)
		return err
	}
	retracted := p.M.MarkSectionCommitted(in, 0)
	p.M.Locks.ReleaseAll(owner, reqs)
	if retracted {
		return ErrRetracted
	}
	return nil
}

// sectionInOrder rejects an out-of-order boundary on an explicitly
// N-section transaction (classic two-section transactions are already
// fully ordered by the state machine).
func sectionInOrder(in *Instance, k int) error {
	if len(in.T.Sections) == 0 {
		return nil
	}
	if got := in.CommittedSections(); got != k {
		return fmt.Errorf("txn %d: section %d out of order (%d boundaries committed)", in.ID, k, got)
	}
	return nil
}
