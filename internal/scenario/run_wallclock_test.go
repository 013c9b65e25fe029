package scenario

import (
	"testing"
	"time"

	"croesus/internal/cluster"
)

// wallClockScenario is a small sharded fleet that exercises every counter
// the wall-clock tests assert: everything validates (θ interval [0,1]), the
// batcher is provisioned to overload (MaxBatch 1, MaxPending 1, starved
// cloud) so admission control sheds, half the keys cross edges so 2PC
// runs, and the timeline severs one cloud uplink mid-run.
func wallClockScenario() *Scenario {
	heal := Duration(1500 * time.Millisecond)
	return &Scenario{
		Name: "wall-clock",
		Seed: 42,
		Topology: Topology{
			Edges: []Edge{{ID: "west"}, {ID: "east"}},
			Cameras: []Camera{
				{ID: "c0", Profile: "street-vehicles", Edge: "west", Frames: 16},
				{ID: "c1", Profile: "street-person", Edge: "east", Frames: 16},
			},
			CrossEdgeFraction: 0.5,
			ThetaL:            0.001, // validate every frame with a visible label
			ThetaU:            0.999,
			Batcher:           Batcher{MaxBatch: 1, MaxPending: 1, CloudSpeed: 0.05},
		},
		Timeline: []Event{
			{At: Duration(200 * time.Millisecond), Do: KindLinkFault, A: "west", B: "cloud", Heal: heal},
		},
	}
}

// TestScenarioRunsOnLoopbackTCP (the name predates the deletion of the
// in-process TCP switch) runs the scenario on a scaled wall clock over the
// modeled links, where the fleet's goroutines truly overlap — the run the
// race detector can see into — and checks that it completes with populated
// validated / shed / 2PC counters and passes the scenario's verdict.
func TestScenarioRunsOnLoopbackTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run in -short mode")
	}
	s := wallClockScenario()
	rep, err := RunWith(s, Options{TimeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 32 {
		t.Errorf("fleet processed %d frames, want 32", rep.Frames)
	}
	if rep.Validated == 0 {
		t.Error("no frame validated on the wall clock")
	}
	if rep.Shed == 0 {
		t.Error("overloaded batcher shed nothing — the degradation path was not exercised")
	}
	if !rep.Sharded {
		t.Error("report does not mark the fleet sharded")
	}
	if got := rep.TwoPC.CrossEdgeCommits + rep.TwoPC.RemoteCommits + rep.TwoPC.LocalCommits; got == 0 {
		t.Error("no 2PC/commit activity counted — cross-edge transactions did not run")
	}
	if err := s.Check(rep); err != nil {
		t.Error(err)
	}
}

// TestScenarioRunsOnBothTransports (the name predates the deletion of the
// in-process TCP switch) runs one scenario value on both clocks back to
// back: the virtual-clock run is deterministic (two replays byte-identical)
// and the wall-clock run of the very same scenario completes with the same
// fleet shape; both pass the scenario's verdict.
func TestScenarioRunsOnBothTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run in -short mode")
	}
	s := wallClockScenario()
	sim1, err := RunWith(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if sim1.Format() != sim2.Format() {
		t.Fatal("sim replay of the scenario is not byte-identical")
	}
	wall, err := RunWith(s, Options{TimeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*cluster.ClusterReport{sim1, wall} {
		if err := s.Check(rep); err != nil {
			t.Error(err)
		}
	}
	if len(wall.Cameras) != len(sim1.Cameras) || wall.Frames != sim1.Frames {
		t.Errorf("fleet shape differs across clocks: wall %d cams / %d frames, sim %d / %d",
			len(wall.Cameras), wall.Frames, len(sim1.Cameras), sim1.Frames)
	}
}
