package main

import (
	"os"
	"testing"
	"time"

	"croesus/internal/fleet"
	"croesus/internal/scenario"
)

// TestMain lets this test binary stand in for the croesus executable: a
// fleet run spawns os.Executable() with a role as its first argument, and
// here that argv goes to run, so the spawned processes run the binary's own
// subcommands.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "edge", "cloud", "client":
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

// TestFleetSpawnCrash plays fleet-crash.json — a SIGKILL crash with WAL
// respawn, a workload shift, a migration, a cloud-link fault with heal, a
// checkpoint, and a camera leave — on real edge, cloud and client processes
// of this test binary (TestMain hands their role argv to run). The merged
// report must pass the scenario's verdict; on top of it come cloud
// validation, a migration that succeeds, and what only processes show: the
// durability verdict, the merged trace, redials, frames served, and the WAL
// replay at respawn.
func TestFleetSpawnCrash(t *testing.T) {
	s, err := scenario.Load("testdata/fleet-crash.json")
	if err != nil {
		t.Fatalf("load scenario: %v", err)
	}
	res, err := fleet.Run(s, fleet.Options{
		WorkDir:   t.TempDir(),
		TimeScale: 0.1,
		Trace:     true,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := s.Check(res.Report); err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Validated == 0 || r.FinalP50 <= 0 {
		t.Errorf("validated = %d, final p50 = %v, want both > 0", r.Validated, r.FinalP50)
	}
	if r.Dynamic.MigrationsFailed != 0 {
		t.Errorf("cam2's migration failed: %+v", *r.Dynamic)
	}

	if !res.DurabilityOK {
		t.Errorf("durability verdict not clean: %+v", res.Edges)
	}
	if len(res.Incidents) != 0 {
		t.Errorf("trace incidents: %v", res.Incidents)
	}

	// Cameras are named by edge id, as the sim names them; cam2 ends on
	// its migration's destination.
	wantEdge := map[string]string{"cam0": "e0", "cam1": "e1", "cam2": "e1"}
	for _, c := range r.Cameras {
		if c.Edge != wantEdge[c.Camera] {
			t.Errorf("camera %s on edge %q, want %q", c.Camera, c.Edge, wantEdge[c.Camera])
		}
	}
	for _, cr := range res.Clients {
		if cr.Camera == "cam2" && cr.Redials == 0 {
			t.Errorf("cam2 migrated but never redialed: %+v", cr)
		}
	}
	var served int64
	for _, er := range res.Edges {
		served += er.Served
		if !er.DurableOK {
			t.Errorf("edge %s durability: %s", er.Edge, er.DurableErr)
		}
		if er.Edge == "e0" && er.WALReplayed == 0 {
			t.Errorf("e0 replayed no WAL records on respawn: %+v", er)
		}
	}
	if served == 0 {
		t.Error("edges served no frames")
	}
}

// TestFleetJoinThenMigrate plays a mid-run camera_join and, at the same
// instant, a migrate_camera of the joined camera on real processes. Events
// apply in timeline order, so the migration finds the camera its join
// started, and the run waits for the joined camera's stream: the report
// passes the verdict, and the joined camera's frames reach it on the
// migration's destination.
func TestFleetJoinThenMigrate(t *testing.T) {
	s := &scenario.Scenario{
		Name: "fleet-join-migrate",
		Seed: 42,
		Topology: scenario.Topology{
			Edges:   []scenario.Edge{{ID: "e0"}, {ID: "e1"}},
			Cameras: []scenario.Camera{{ID: "cam0", Profile: "park-dog", Edge: "e0", Frames: 20}},
		},
		Timeline: []scenario.Event{
			{At: scenario.Duration(time.Second), Do: scenario.KindCameraJoin,
				Join: &scenario.Camera{ID: "late", Profile: "street-vehicles", Edge: "e0", Frames: 20}},
			{At: scenario.Duration(time.Second), Do: scenario.KindMigrateCamera, Camera: "late", To: "e1"},
		},
	}
	res, err := fleet.Run(s, fleet.Options{
		WorkDir:   t.TempDir(),
		TimeScale: 0.1,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := s.Check(res.Report); err != nil {
		t.Fatal(err)
	}
	if d := res.Report.Dynamic; d.MigrationsFailed != 0 {
		t.Errorf("dynamic = %+v, want the migration to succeed", *d)
	}
	for _, c := range res.Report.Cameras {
		if c.Camera == "late" && c.Edge != "e1" {
			t.Errorf("joined camera on edge %q, want e1", c.Edge)
		}
	}
	for _, cr := range res.Clients {
		if cr.Camera == "late" && cr.Answered == 0 {
			t.Errorf("joined camera answered no frames: %+v", cr)
		}
	}
}
