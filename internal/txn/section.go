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

// AllRequests returns AllRW().Requests() — every section's lock requests,
// normalized — without building the union when there is nothing to unite:
// when every section shares one cached request slice (a template that
// declares a single set for all its sections and precomputes it), that
// slice is returned as is, with no allocation.
func (t *Txn) AllRequests() []lock.Request {
	first := t.SectionAt(0).RW.norm
	for k := 1; k < t.NumSections() && first != nil; k++ {
		if other := t.SectionAt(k).RW.norm; len(other) != len(first) || &other[0] != &first[0] {
			first = nil
		}
	}
	if first != nil {
		return first
	}
	return t.AllRW().Requests()
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
// protocols drive.
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

	if m.onCommit != nil {
		m.onCommit(in.ID, Stage(k))
	}
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
// section 0 acquires the union of every section's locks under wait-die,
// and every later section runs under those held locks until the last
// boundary releases them.
func (p *MSSR) RunSection(in *Instance, k int) error {
	last := in.T.LastSection()
	if k == 0 {
		return p.runFirst(in)
	}
	release := func() {
		in.mu.Lock()
		held := in.holding
		in.holding = false
		in.mu.Unlock()
		if held {
			p.M.Locks.ReleaseAll(lock.Owner(in.ID), in.T.AllRequests())
		}
	}
	switch s := in.State(); s {
	case StateInitialCommitted:
	case StateRetracted:
		release() // a cascade got here first; don't leak the 2PL locks
		return ErrRetracted
	default:
		return fmt.Errorf("txn %d: RunSection(%d) in state %s", in.ID, k, s)
	}
	if err := in.CheckOrder(k); err != nil {
		return err
	}
	ctx := in.sectionCtx(Stage(k))
	err := in.T.SectionAt(k).Body(ctx)
	// The multi-stage contract: an initially-committed transaction commits
	// every remaining boundary. A section error here is the programmer's
	// apology logic failing, not a concurrency abort; the boundary still
	// commits (unless the section retracted the transaction, terminally).
	retracted := p.M.MarkSectionCommitted(in, k)
	if k == last || retracted {
		release()
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
	if p.Policy != Wait {
		return fmt.Errorf("txn %d: txn.MSSR acquires by wait-die only; no-wait is twopc.ShardedCC's policy", in.ID)
	}
	if s := in.State(); s != StatePending {
		return fmt.Errorf("txn %d: RunInitial in state %s", in.ID, s)
	}
	owner := lock.Owner(in.ID)
	reqs := in.T.AllRequests()
	tAcq := p.M.now()
	if !p.M.Locks.AcquireAllWaitDie(owner, reqs) {
		now := p.M.now()
		in.AddLockWait(now - tAcq)
		p.M.Tracer.EmitCtx(in.Trace, obs.SpanLockAbort, p.M.TraceTags, tAcq, now)
		p.M.MarkAborted(in)
		return ErrAborted
	}
	in.AddLockWait(p.M.now() - tAcq)

	ctx := in.sectionCtx(StageInitial)
	if err := in.T.SectionAt(0).Body(ctx); err != nil {
		p.M.MarkAborted(in)
		p.M.Locks.ReleaseAll(owner, reqs)
		return err
	}
	if in.T.LastSection() > 0 {
		in.mu.Lock()
		in.holding = true
		in.mu.Unlock()
		p.M.MarkSectionCommitted(in, 0)
		return nil
	}
	retracted := p.M.MarkSectionCommitted(in, 0)
	p.M.Locks.ReleaseAll(owner, reqs)
	if retracted {
		return ErrRetracted
	}
	return nil
}

// RunSection executes section k under MS-IA: acquire section k's own
// locks (blocking), execute, commit the boundary, release — every boundary
// is independent, which is what lets a later retraction cascade back
// through the already-visible earlier boundaries. Only a failed section 0
// aborts instead of committing.
func (p *MSIA) RunSection(in *Instance, k int) error {
	switch s := in.State(); {
	case k == 0 && s != StatePending:
		return fmt.Errorf("txn %d: RunInitial in state %s", in.ID, s)
	case k > 0 && s == StateRetracted:
		return ErrRetracted
	case k > 0 && s != StateInitialCommitted:
		return fmt.Errorf("txn %d: RunSection(%d) in state %s", in.ID, k, s)
	}
	if err := in.CheckOrder(k); err != nil {
		return err
	}
	owner := lock.Owner(in.ID)
	reqs := in.T.SectionAt(k).RW.Requests()
	tAcq := p.M.now()
	p.M.Locks.AcquireAll(owner, reqs)
	in.AddLockWait(p.M.now() - tAcq)
	err := in.T.SectionAt(k).Body(in.sectionCtx(Stage(k)))
	if err != nil && k == 0 {
		p.M.MarkAborted(in)
		p.M.Locks.ReleaseAll(owner, reqs)
		return err
	}
	retracted := p.M.MarkSectionCommitted(in, k)
	p.M.Locks.ReleaseAll(owner, reqs)
	if err == nil && retracted {
		return ErrRetracted
	}
	return err
}

// CheckOrder rejects an out-of-order boundary k on an explicitly N-section
// transaction (classic two-section transactions are already fully ordered
// by the state machine). Every CC calls it before running a later section.
func (in *Instance) CheckOrder(k int) error {
	if len(in.T.Sections) == 0 {
		return nil
	}
	if got := in.CommittedSections(); got != k {
		return fmt.Errorf("txn %d: section %d out of order (%d boundaries committed)", in.ID, k, got)
	}
	return nil
}
