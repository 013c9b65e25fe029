package txn

import (
	"fmt"
	"sort"

	"croesus/internal/obs"
)

// Retract undoes the writes of inst and of every transitively dependent
// instance, restoring before-images in reverse global write order so the
// store returns to the exact state it would have had without them. Each
// affected instance is marked retracted and contributes an apology.
//
// Retraction is the mechanical fallback of the MS-IA apology pattern: the
// paper's §4.4 example retracts an erroneous 50-token transfer and the
// dependent transfers it enabled, while merge-able effects are retained by
// programmer logic instead of calling Retract.
//
// This is the entry point for a protocol acting on inst from outside its
// section bodies (a commit round that failed); a body retracts its own
// instance through Ctx.Retract.
func (m *Manager) Retract(inst *Instance, reason string) []Apology {
	inst.mu.Lock()
	inst.inBody = false
	inst.mu.Unlock()
	return m.retract(inst, reason)
}

// restore re-installs the before-images of recs, in order, through the
// restore backend.
func (m *Manager) restore(recs []undoRec) {
	db := m.restoreDB()
	for _, r := range recs {
		if r.existed {
			db.Put(r.key, r.prev)
		} else {
			db.Delete(r.key)
		}
	}
}

// reach appends to out, in depth-first preorder, every instance reachable
// from in over dependents edges that the current walk (m.visits) has not
// met yet. Caller holds m.mu.
func (m *Manager) reach(in *Instance, out []*Instance) []*Instance {
	if in.mark == m.visits {
		return out
	}
	in.mark = m.visits
	out = append(out, in)
	for _, d := range in.dependents {
		out = m.reach(d, out)
	}
	return out
}

func (m *Manager) retract(inst *Instance, reason string) []Apology {
	tStart := m.now()
	// Collect the affected set — inst plus transitive dependents — and
	// consume every undo record of it.
	m.mu.Lock()
	m.visits++
	affected := m.reach(inst, nil)
	var recs []undoRec
	for _, in := range affected {
		recs = append(recs, in.undo[in.undone:]...)
		for i := in.undone; i < len(in.undo); i++ {
			in.undo[i].prev = nil
		}
		in.undone = len(in.undo)
	}
	m.mu.Unlock()

	// Restore in reverse write order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq > recs[j].seq })
	m.restore(recs)

	// The retracted instances deliberately REMAIN the recorded last
	// writers of the keys they touched (their consumed undo records keep
	// the keys): the restored values are the retraction's doing, and any
	// future writer of those keys must still pick up a dependency edge so
	// that a later cascade from an ancestor of this retraction reaches it
	// too. (Dropping the entries here would let an ancestor's undo clobber
	// an innocent later write — observed as a token-conservation violation
	// by the MS-IA property test.) They remain so until they settle: once
	// no non-terminal instance reaches a retracted one, no ancestor is left
	// that could start such a cascade, and the sweep drops the entries.
	// A victim that is between sections will find itself retracted and run
	// no further body, so it is terminal here; one caught inside a body
	// (inst itself, under Ctx.Retract) retires at that section's boundary.
	apologies := make([]Apology, len(affected))
	cascaded := ""
	if len(affected) > 1 {
		cascaded = fmt.Sprintf("cascaded from %s (txn %d): %s", inst.T.Name, inst.ID, reason)
	}
	for i, in := range affected {
		why := cascaded
		if in == inst {
			why = reason
		}
		apologies[i] = Apology{TxnID: in.ID, TxnName: in.T.Name, Reason: why}
	}
	m.mu.Lock()
	m.stats.Retractions += int64(len(affected))
	m.stats.Apologies += int64(len(affected))
	for i, in := range affected {
		in.mu.Lock()
		in.state = StateRetracted
		in.apologies = append(in.apologies, apologies[i])
		inBody := in.inBody
		in.mu.Unlock()
		if !inBody {
			m.retire(in)
		}
	}
	m.mu.Unlock()
	m.Tracer.EmitCtx(inst.Trace, obs.SpanRetraction, m.TraceTags, tStart, m.now())
	return apologies
}
