package scenario

import "time"

// Driver is one deployment's side of a timeline: Schedule runs a function
// at a timeline instant, and each verb applies one effect to the live
// fleet. Play is the only caller; it decides which verbs an event calls
// and when. Verbs report no errors: references were checked by Validate,
// and what still fails is a modeled outcome the deployment counts in its
// report.
type Driver interface {
	// Schedule runs fn at clock time at, marking a phase boundary named
	// label first. fn applies the event's instant effect; when that effect
	// lasts (a crash with restart_after, a link fault with heal) it returns
	// the undo and the delay after which it is due, and Schedule runs the
	// undo then without holding back later events. Play calls Schedule once per
	// event, in timeline order, and a driver may run fn before returning.
	Schedule(at time.Duration, label string, fn func() (undoAfter time.Duration, undo func()))

	// Join starts a camera that joins mid-run; Stop retires one.
	Join(cam Camera)
	Stop(camera string)
	// Migrate moves a camera (and, sharded, its shard's keys) to edge to.
	Migrate(camera, to string)
	// Shift re-shapes a camera's workload (every camera's, with ""); a
	// nil operand keeps its current value.
	Shift(camera string, rate, crossEdgeFraction, zipfSkew *float64)
	// Retire drains an edge out of the fleet for good.
	Retire(edge string)
	// Crash fail-stops an edge and reports whether this call took it
	// down; false means it was already down.
	Crash(edge string) bool
	// Restart brings a crashed edge back.
	Restart(edge string)
	// ArmTwoPCCrash makes edge fail-stop at the round-th occurrence of
	// the 2PC point from now on, restarting after restartAfter when that
	// is positive.
	ArmTwoPCCrash(edge, point string, round int, restartAfter time.Duration)
	// SetLink severs (down) or heals the path between edges a and b, or
	// a's cloud uplink when b is "cloud".
	SetLink(a, b string, down bool)
	// Checkpoint compacts one edge's write-ahead log (every edge's, with
	// "").
	Checkpoint(edge string)
}

// Play hands s's timeline to d: it sorts the events once (stable on ties)
// and schedules each at its instant. The scheduled function is the one
// place an event kind becomes verbs. An effect that lasts — an edge crash
// with restart_after, a link fault with heal — hands its undo back to the
// driver, and a crash that found its edge already down owns no restart:
// the crash that downed it does.
func Play(s *Scenario, d Driver) {
	for _, ev := range s.SortedTimeline() {
		d.Schedule(time.Duration(ev.At), ev.Label(), func() (time.Duration, func()) { return apply(ev, d) })
	}
}

// apply runs one event's verbs at its instant and returns its undo, if
// the effect lasts, with the delay after which the undo is due.
func apply(ev Event, d Driver) (time.Duration, func()) {
	switch ev.Do {
	case KindCameraJoin:
		d.Join(*ev.Join)
	case KindCameraLeave:
		d.Stop(ev.Camera)
	case KindMigrateCamera:
		d.Migrate(ev.Camera, ev.To)
	case KindWorkloadShift:
		d.Shift(ev.Camera, ev.Rate, ev.CrossEdgeFraction, ev.ZipfSkew)
	case KindEdgeRetire:
		d.Retire(ev.Edge)
	case KindEdgeCrash:
		if d.Crash(ev.Edge) && ev.RestartAfter > 0 {
			return time.Duration(ev.RestartAfter), func() { d.Restart(ev.Edge) }
		}
	case KindTwoPCCrash:
		d.ArmTwoPCCrash(ev.Edge, ev.Point, ev.Round, time.Duration(ev.RestartAfter))
	case KindLinkFault:
		d.SetLink(ev.A, ev.B, true)
		if ev.Heal > ev.At {
			return time.Duration(ev.Heal - ev.At), func() { d.SetLink(ev.A, ev.B, false) }
		}
	case KindCheckpoint:
		d.Checkpoint(ev.Edge)
	}
	return 0, nil
}
