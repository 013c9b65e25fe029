package fleet

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"croesus/internal/node"
	"croesus/internal/scenario"
	"croesus/internal/wire"
)

// TestControlRoundTrip exercises the control protocol end to end: dial,
// dispatch, op-specific JSON, unknown-op errors.
func TestControlRoundTrip(t *testing.T) {
	h := NewHandler("edge")
	h.On("echo", func(c wire.Control) (any, error) {
		return map[string]string{"path": c.Path}, nil
	})
	srv, err := ServeControl("127.0.0.1:0", h)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	ctl, err := DialControl(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()

	var ping struct {
		Role string `json:"role"`
	}
	if err := ctl.CallJSON(wire.Control{Op: OpPing}, 0, &ping); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if ping.Role != "edge" {
		t.Errorf("ping role = %q, want edge", ping.Role)
	}
	var echo struct {
		Path string `json:"path"`
	}
	if err := ctl.CallJSON(wire.Control{Op: "echo", Path: "cloud"}, 0, &echo); err != nil {
		t.Fatalf("echo: %v", err)
	}
	if echo.Path != "cloud" {
		t.Errorf("echo path = %q, want cloud", echo.Path)
	}
	r, err := ctl.Call(wire.Control{Op: "no-such-op"}, 0)
	if err != nil {
		t.Fatalf("unknown op transport error: %v", err)
	}
	if r.OK || r.Err == "" {
		t.Errorf("unknown op should fail with a remote error, got ok=%v err=%q", r.OK, r.Err)
	}
}

// buildFleetBinaries compiles the edge, cloud, and client binaries the
// orchestrator spawns into a fresh directory, with the toolchain that built
// this test.
func buildFleetBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(gobin, "build", "-o", dir+string(filepath.Separator),
		"croesus/cmd/croesus-edge", "croesus/cmd/croesus-cloud", "croesus/cmd/croesus-client")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// TestFleetSpawnCrash plays fleet-crash.json — a SIGKILL crash with WAL
// respawn, a workload shift, a migration, a cloud-link fault with heal, a
// checkpoint, and a camera leave — on real croesus-edge / croesus-cloud /
// croesus-client processes. The merged report must pass the scenario's
// verdict; on top of it come cloud validation, a migration that succeeds,
// and what only processes show: the durability verdict, the merged trace,
// redials, frames served, and the WAL replay at respawn.
func TestFleetSpawnCrash(t *testing.T) {
	bin := buildFleetBinaries(t)
	s, err := scenario.Load(filepath.Join("..", "..", "cmd", "croesus-cluster", "testdata", "fleet-crash.json"))
	if err != nil {
		t.Fatalf("load scenario: %v", err)
	}
	res, err := Run(s, Options{
		BinDir:    bin,
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
	bin := buildFleetBinaries(t)
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
	res, err := Run(s, Options{
		BinDir:    bin,
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

// TestValidateForFleet rejects what standalone processes cannot run, or
// would run differently from the sim: no flag carries an edge's speed or
// the per-operation cost to a croesus-edge process.
func TestValidateForFleet(t *testing.T) {
	half, zipf := 0.5, 1.2
	for _, tc := range []struct {
		name string
		edit func(s *scenario.Scenario)
		ok   bool
	}{
		{"plain", func(*scenario.Scenario) {}, true},
		{"sharded", func(s *scenario.Scenario) { s.Topology.Sharded = true }, false},
		{"graph", func(s *scenario.Scenario) {
			s.Topology.Graph = &node.GraphSpec{Nodes: []node.GraphNodeSpec{{Tier: "edge"}, {Tier: "cloud"}}}
		}, false},
		{"edge crash", func(s *scenario.Scenario) {
			s.Timeline = []scenario.Event{{At: 1, Do: scenario.KindEdgeCrash, Edge: "e0"}}
		}, true},
		{"edge↔edge link fault", func(s *scenario.Scenario) {
			s.Topology.Sharded = true
			s.Timeline = []scenario.Event{{At: 1, Do: scenario.KindLinkFault, A: "e0", B: "e1"}}
		}, false},
		{"edge speed 1", func(s *scenario.Scenario) { s.Topology.Edges[0].Speed = 1 }, true},
		{"edge speed 0.5", func(s *scenario.Scenario) { s.Topology.Edges[1].Speed = 0.5 }, false},
		{"op_cost", func(s *scenario.Scenario) { s.Topology.OpCost = scenario.Duration(time.Millisecond) }, false},
		{"rate shift", func(s *scenario.Scenario) {
			s.Timeline = []scenario.Event{{At: 1, Do: scenario.KindWorkloadShift, Rate: &half}}
		}, true},
		{"key-shape shift", func(s *scenario.Scenario) {
			s.Topology.Durable = true
			s.Timeline = []scenario.Event{{At: 1, Do: scenario.KindWorkloadShift, ZipfSkew: &zipf}}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scenario.Scenario{
				Topology: scenario.Topology{
					Edges:   []scenario.Edge{{ID: "e0"}, {ID: "e1"}},
					Cameras: []scenario.Camera{{ID: "a", Profile: "park-dog", Edge: "e0"}},
				},
			}
			tc.edit(s)
			if err := ValidateForFleet(s); (err == nil) != tc.ok {
				t.Errorf("ValidateForFleet = %v, want ok = %v", err, tc.ok)
			}
		})
	}
}
