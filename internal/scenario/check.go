package scenario

import (
	"fmt"
	"time"

	"croesus/internal/cluster"
)

// settle is how long after an outage's scripted end a repeat fault on the
// same target is sure to fire: a restart is not instant (the sim charges
// WAL replay, a real edge respawns), and two wall-clock timers that close
// may fire in either order. A repeat inside it may be absorbed.
const settle = time.Second

// never is the end of an outage that may not end.
const never = time.Duration(1<<63 - 1)

// Check is the run verdict: it works out from the timeline what a report
// of this scenario must show, on any deployment (the sim, a wall clock,
// real processes), and returns the first count that disagrees, or nil.
//
// Most counts are exact: cameras (topology plus joins), joins, workload
// shifts, retirements and migrations attempted. A few events may
// legitimately count nothing, so their counts are checked against a range:
// a fault or leave on a target an earlier one may still hold is absorbed
// by it; a twopc_crash fires only if its edge reaches the 2PC point after
// it is armed; an edge_retire migrates whatever cameras its edge holds
// then; and a crash without restart_after is restarted only by the sim's
// end-of-run repair. Frames must flow, and a durable edge's restart must
// replay WAL records.
func (s *Scenario) Check(r *cluster.ClusterReport) error {
	if r == nil {
		return fmt.Errorf("scenario %q: no report", s.Name)
	}
	cams, _, err := s.Cameras()
	if err != nil {
		return err
	}
	n := map[string]int{} // events per kind
	// Each [2]int is a [lo, hi] range: every event raises hi, and a sure
	// one raises lo once its target is free — settle past the scripted
	// end of every earlier outage there. Some outages may never end: a
	// leave, a crash without restart_after, an unhealed link, and an armed
	// twopc_crash, which may fire at any later instant.
	var leaves, uplinks, crashes [2]int
	free := map[string]time.Duration{}
	permanent := 0 // crash events that restart nothing
	for _, ev := range s.SortedTimeline() {
		n[ev.Do]++
		c, target, sure, end := &leaves, "leave:"+ev.Camera, true, never
		switch {
		case ev.Do == KindCameraLeave:
		case ev.Do == KindLinkFault && ev.B == "cloud":
			c, target = &uplinks, "uplink:"+ev.A
			if ev.Heal > ev.At {
				end = time.Duration(ev.Heal) + settle
			}
		case ev.Do == KindEdgeCrash || ev.Do == KindTwoPCCrash:
			c, target, sure = &crashes, "crash:"+ev.Edge, ev.Do == KindEdgeCrash
			if ev.RestartAfter <= 0 {
				permanent++
			} else if sure {
				end = time.Duration(ev.At+ev.RestartAfter) + settle
			}
		default:
			continue
		}
		if sure && time.Duration(ev.At) >= free[target] {
			c[0]++
		}
		c[1]++
		free[target] = max(free[target], end)
	}

	var d cluster.DynamicReport
	if r.Dynamic != nil {
		d = *r.Dynamic
	}
	// A durable fleet counts crashes in its fault report; an unsharded sim
	// darkens the edge's data plane and counts outages.
	crashed, restarted := d.EdgeOutages, d.OutageRestores
	if f := r.Faults; f != nil {
		crashed, restarted = int(f.Crashes), int(f.Restarts)
	}
	migrates := n[KindMigrateCamera]
	for _, c := range []struct {
		what   string
		got    int
		lo, hi int
	}{
		{"cameras", len(r.Cameras), len(cams), len(cams)},
		{"joins", d.Joins, n[KindCameraJoin], n[KindCameraJoin]},
		{"leaves", d.Leaves, leaves[0], leaves[1]},
		{"workload shifts", d.WorkloadShifts, n[KindWorkloadShift], n[KindWorkloadShift]},
		{"retired edges", d.Retired, n[KindEdgeRetire], n[KindEdgeRetire]},
		{"migrations", d.Migrations + d.MigrationsFailed, migrates, migrates + n[KindEdgeRetire]*len(cams)},
		{"cloud-link outages", d.CloudLinkOutages, uplinks[0], uplinks[1]},
		{"crashes", crashed, crashes[0], crashes[1]},
		{"restarts", restarted, max(crashed-permanent, 0), crashed},
	} {
		if c.got < c.lo || c.got > c.hi {
			want := fmt.Sprint(c.lo)
			if c.hi != c.lo {
				want = fmt.Sprintf("%d to %d", c.lo, c.hi)
			}
			return fmt.Errorf("scenario %q: %s %d, the timeline scripts %s", s.Name, c.what, c.got, want)
		}
	}
	if r.Frames == 0 {
		return fmt.Errorf("scenario %q: no frames completed", s.Name)
	}
	if f := r.Faults; f != nil && f.Restarts > 0 && f.ReplayedRecords == 0 {
		return fmt.Errorf("scenario %q: %d restarts replayed no WAL records", s.Name, f.Restarts)
	}
	return nil
}
