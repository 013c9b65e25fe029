package scenario

import (
	"strings"
	"testing"
	"time"

	"croesus/internal/vclock"
	"croesus/internal/workload"
)

// migrateAndCrash is the acceptance scenario: a camera migrates between
// edges mid-run while a fault plan is active (an edge crash with WAL
// recovery and a participant 2PC crash), with cross-edge traffic on.
func migrateAndCrash() *Scenario {
	return &Scenario{
		Version: 1,
		Name:    "migrate-under-faults",
		Seed:    11,
		Topology: Topology{
			Edges: []Edge{{ID: "north"}, {ID: "mid"}, {ID: "south", Speed: 0.7}},
			Cameras: []Camera{
				{ID: "cam0", Profile: "street-vehicles", Edge: "north", Frames: 50},
				{ID: "cam1", Profile: "park-dog", Edge: "mid", Frames: 50},
				{ID: "cam2", Profile: "mall-person", Edge: "south", Frames: 50},
			},
			CrossEdgeFraction: 0.3,
			Batcher:           Batcher{MaxBatch: 8, SLO: Duration(80 * time.Millisecond)},
		},
		Timeline: []Event{
			{At: Duration(4 * time.Second), Do: KindEdgeCrash, Edge: "mid", RestartAfter: Duration(2 * time.Second)},
			{At: Duration(6 * time.Second), Do: KindTwoPCCrash, Edge: "south", Point: PointParticipantPrepared, Round: 1, RestartAfter: Duration(time.Second)},
			{At: Duration(10 * time.Second), Do: KindMigrateCamera, Camera: "cam0", To: "south"},
			{At: Duration(15 * time.Second), Do: KindLinkFault, A: "north", B: "mid", Heal: Duration(16 * time.Second)},
		},
	}
}

// TestMigrationUnderFaultsAcceptance is the PR's acceptance bar: the
// migrate-under-faults scenario completes with zero half-committed
// transactions and replays byte-identically under the same seed.
func TestMigrationUnderFaultsAcceptance(t *testing.T) {
	run := func() (format string, migrations, migratedKeys int) {
		rt, err := New(migrateAndCrash(), vclock.NewSim())
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Cluster.Close()
		rep := rt.Run()
		if err := rt.Cluster.Injector().VerifyDurability(); err != nil {
			t.Fatalf("durability broken after migration under faults: %v", err)
		}
		if rep.Dynamic == nil {
			t.Fatal("scenario run produced no dynamic report")
		}
		return rep.Format(), rep.Dynamic.Migrations, rep.Dynamic.MigratedKeys
	}
	f1, migs, keys := run()
	f2, _, _ := run()
	if f1 != f2 {
		t.Fatalf("scenario replay diverged:\n--- run 1\n%s\n--- run 2\n%s", f1, f2)
	}
	if migs != 1 {
		t.Fatalf("expected 1 completed migration, got %d", migs)
	}
	if keys == 0 {
		t.Fatal("migration moved no keys; the handoff test is vacuous")
	}
}

// TestMigrationInvariants checks the handoff itself: after the run, every
// key of the migrated camera's shard lives on the destination partition,
// none on the source, and the map routes the shard to the destination —
// no key lost, duplicated, or served by two epochs at once.
func TestMigrationInvariants(t *testing.T) {
	rt, err := New(migrateAndCrash(), vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Cluster.Close()
	rep := rt.Run()
	if rep.Frames == 0 {
		t.Fatal("no frames ran")
	}

	smap := rt.Cluster.ShardMap()
	shard := rt.idx["cam0"]
	destIdx, err2 := rt.Cluster.Edges()[0], error(nil)
	_ = destIdx
	_ = err2
	if got := smap.Owner(shard); got != 2 {
		t.Fatalf("shard %d owned by partition %d after migration to south (2)", shard, got)
	}
	counts := map[string]int{}
	for i, e := range rt.Cluster.Edges() {
		for k := range e.Partition.Store.Snapshot() {
			s, ok := workload.ShardOf(k)
			if !ok || s != shard {
				continue
			}
			counts[k]++
			if i != 2 {
				t.Errorf("shard-%d key %q still served by partition %d after migration", shard, k, i)
			}
		}
	}
	if len(counts) == 0 {
		t.Fatal("migrated shard holds no keys; the invariant check is vacuous")
	}
	for k, n := range counts {
		if n != 1 {
			t.Errorf("key %q present on %d partitions", k, n)
		}
	}
	if smap.Epoch() == 0 {
		t.Error("shard map epoch never advanced across a migration")
	}
}

// TestCheckpointBoundsReplay is the ROADMAP satellite: a checkpoint before
// a crash must make recovery replay fewer WAL records than the same run
// without one.
func TestCheckpointBoundsReplay(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Version: 1,
			Seed:    5,
			Topology: Topology{
				Edges: []Edge{{ID: "a"}, {ID: "b"}},
				Cameras: []Camera{
					{ID: "cam0", Profile: "street-vehicles", Edge: "a", Frames: 40},
					{ID: "cam1", Profile: "park-dog", Edge: "b", Frames: 40},
				},
				CrossEdgeFraction: 0.25,
				Durable:           true,
				Batcher:           Batcher{MaxBatch: 8, SLO: Duration(80 * time.Millisecond)},
			},
			Timeline: []Event{
				{At: Duration(12 * time.Second), Do: KindEdgeCrash, Edge: "a", RestartAfter: Duration(2 * time.Second)},
			},
		}
	}
	plain := base()
	rep1, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := base()
	ckpt.Timeline = append([]Event{{At: Duration(10 * time.Second), Do: KindCheckpoint}}, ckpt.Timeline...)
	rep2, err := Run(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Faults.Checkpoints == 0 {
		t.Fatal("checkpoint event never checkpointed")
	}
	if rep1.Faults.ReplayedRecords == 0 {
		t.Fatal("uncheckpointed crash replayed nothing; the comparison is vacuous")
	}
	if rep2.Faults.ReplayedRecords >= rep1.Faults.ReplayedRecords {
		t.Fatalf("checkpoint did not bound replay: %d records with checkpoint vs %d without",
			rep2.Faults.ReplayedRecords, rep1.Faults.ReplayedRecords)
	}
	if err := vDur(t, ckpt); err != nil {
		t.Fatalf("durability broken after checkpointed crash: %v", err)
	}
}

// vDur reruns a scenario keeping the cluster open and verifies durability.
func vDur(t *testing.T, s *Scenario) error {
	t.Helper()
	rt, err := New(s, vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Cluster.Close()
	rt.Run()
	return rt.Cluster.Injector().VerifyDurability()
}

// TestPeriodicCheckpointTicker exercises Topology.CheckpointEvery.
func TestPeriodicCheckpointTicker(t *testing.T) {
	s := &Scenario{
		Version: 1,
		Seed:    5,
		Topology: Topology{
			Edges:           []Edge{{ID: "a"}, {ID: "b"}},
			Cameras:         []Camera{{ID: "cam0", Profile: "street-vehicles", Edge: "a", Frames: 30}, {ID: "cam1", Profile: "park-dog", Edge: "b", Frames: 30}},
			CheckpointEvery: Duration(5 * time.Second),
			Batcher:         Batcher{MaxBatch: 8, SLO: Duration(80 * time.Millisecond)},
		},
	}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == nil || rep.Faults.Checkpoints == 0 {
		t.Fatalf("periodic ticker never checkpointed: %+v", rep.Faults)
	}
}

// TestUnshardedTimelineFaults: edge crashes and cloud-uplink partitions on
// a fleet without the sharded machinery — frames drop while the edge is
// dark, lost validations finalize locally, and the run stays deterministic.
func TestUnshardedTimelineFaults(t *testing.T) {
	s := &Scenario{
		Version: 1,
		Seed:    9,
		Topology: Topology{
			Edges: []Edge{{ID: "a"}, {ID: "b"}},
			Cameras: []Camera{
				{ID: "cam0", Profile: "street-vehicles", Edge: "a", Frames: 60},
				{ID: "cam1", Profile: "park-dog", Edge: "b", Frames: 60},
			},
			Batcher: Batcher{MaxBatch: 8, SLO: Duration(80 * time.Millisecond)},
		},
		Timeline: []Event{
			{At: Duration(5 * time.Second), Do: KindEdgeCrash, Edge: "a", RestartAfter: Duration(5 * time.Second)},
			{At: Duration(20 * time.Second), Do: KindLinkFault, A: "b", B: "cloud", Heal: Duration(24 * time.Second)},
		},
	}
	run := func() (*Scenario, string) {
		sc := &Scenario{}
		*sc = *s
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sharded {
			t.Fatal("unsharded scenario ran sharded")
		}
		d := rep.Dynamic
		if d == nil {
			t.Fatal("no dynamic report")
		}
		if d.EdgeOutages != 1 || d.OutageRestores != 1 {
			t.Fatalf("outage accounting: %+v", d)
		}
		if d.FramesDropped == 0 {
			t.Fatal("edge outage dropped no frames")
		}
		if d.CloudLinkOutages != 1 {
			t.Fatalf("cloud link outage not counted: %+v", d)
		}
		if rep.Lost == 0 {
			t.Fatal("cloud-uplink partition lost no validations")
		}
		return sc, rep.Format()
	}
	_, f1 := run()
	_, f2 := run()
	if f1 != f2 {
		t.Fatalf("unsharded faulty run diverged:\n%s\nvs\n%s", f1, f2)
	}
}

// TestJoinLeaveAndShift drives membership churn and a workload shift.
func TestJoinLeaveAndShift(t *testing.T) {
	zero, half := 0.0, 0.5
	s := &Scenario{
		Version: 1,
		Seed:    13,
		Topology: Topology{
			Edges: []Edge{{ID: "a"}, {ID: "b"}},
			Cameras: []Camera{
				{ID: "cam0", Profile: "street-vehicles", Edge: "a", Frames: 50},
				{ID: "cam1", Profile: "park-dog", Edge: "b", Frames: 50},
			},
			Sharded: true,
			Batcher: Batcher{MaxBatch: 8, SLO: Duration(80 * time.Millisecond)},
		},
		Timeline: []Event{
			{At: Duration(5 * time.Second), Do: KindWorkloadShift, CrossEdgeFraction: &half},
			{At: Duration(8 * time.Second), Do: KindCameraJoin, Join: &Camera{ID: "popup", Profile: "street-person", Edge: "a", Frames: 20}},
			{At: Duration(12 * time.Second), Do: KindCameraLeave, Camera: "cam1"},
			{At: Duration(14 * time.Second), Do: KindWorkloadShift, Camera: "cam0", CrossEdgeFraction: &zero},
		},
	}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Dynamic
	if d == nil || d.Joins != 1 || d.Leaves != 1 || d.WorkloadShifts != 2 {
		t.Fatalf("membership accounting: %+v", d)
	}
	if len(rep.Cameras) != 3 {
		t.Fatalf("expected 3 camera reports, got %d", len(rep.Cameras))
	}
	var popup, left bool
	for _, cr := range rep.Cameras {
		if cr.Camera == "popup" && cr.Summary.Frames > 0 {
			popup = true
		}
		if cr.Camera == "cam1" && cr.Left && cr.Summary.Frames < 50 {
			left = true
		}
	}
	if !popup {
		t.Error("joined camera processed no frames")
	}
	if !left {
		t.Error("left camera not truncated")
	}
	// The fleet ran cross-shard traffic only between the shifts.
	if rep.TwoPC.CrossEdgeCommits == 0 && rep.TwoPC.RemoteCommits == 0 {
		t.Error("workload shift to 50% cross-edge produced no cross-shard commits")
	}
	if len(rep.Phases) == 0 {
		t.Fatal("timeline produced no phase slices")
	}
	var phaseFrames int
	for _, p := range rep.Phases {
		phaseFrames += p.Frames
	}
	if phaseFrames != rep.Frames {
		t.Errorf("phase slices cover %d frames, fleet ran %d", phaseFrames, rep.Frames)
	}
}

// TestMigrateAfterStreamEnds re-homes a camera whose stream already
// finished: the shard keys must still hand over and the report must place
// the camera on its destination edge (the feeder is gone, so the rebind
// cannot ride the next frame).
func TestMigrateAfterStreamEnds(t *testing.T) {
	s := &Scenario{
		Version: 1,
		Seed:    3,
		Topology: Topology{
			Edges: []Edge{{ID: "a"}, {ID: "b"}},
			Cameras: []Camera{
				{ID: "short", Profile: "park-dog", Edge: "a", Frames: 10},
				{ID: "long", Profile: "street-vehicles", Edge: "b", Frames: 60},
			},
			Sharded: true,
			Batcher: Batcher{MaxBatch: 8, SLO: Duration(80 * time.Millisecond)},
		},
		Timeline: []Event{
			// The 10-frame stream (2 fps) ends by t=5s; migrate at t=20s.
			{At: Duration(20 * time.Second), Do: KindMigrateCamera, Camera: "short", To: "b"},
		},
	}
	rt, err := New(s, vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Cluster.Close()
	rep := rt.Run()
	if got := rt.Cluster.ShardMap().Owner(rt.idx["short"]); got != 1 {
		t.Fatalf("shard owned by %d after post-stream migration", got)
	}
	for _, cr := range rep.Cameras {
		if cr.Camera == "short" && cr.Edge != "b" {
			t.Fatalf("camera reported on edge %q, want destination \"b\"", cr.Edge)
		}
	}
}

// TestScenarioErrorsSurface makes sure a broken scenario fails fast.
func TestScenarioErrorsSurface(t *testing.T) {
	s := twoEdgeScenario()
	s.Timeline = append(s.Timeline, Event{At: Duration(time.Second), Do: "warp_core_breach"})
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "unknown event kind") {
		t.Fatalf("got %v", err)
	}
}

// TestSetUpAllocationCeiling keeps set-up allocation from creeping back:
// decoding migrate.json and provisioning its fleet (every camera's video
// included) took 807 allocations before videos were carved from slabs and
// profiles looked up in a table, 420 after; the ceiling is that +10 %.
func TestSetUpAllocationCeiling(t *testing.T) {
	const ceiling = 462
	path := scenarioFile("migrate.json")
	n := testing.AllocsPerRun(20, func() {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewObserved(s, vclock.NewSim(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.Cluster.Close()
	})
	if n > ceiling {
		t.Fatalf("Load+NewObserved of migrate.json allocates %v times, ceiling %d", n, ceiling)
	}
}
