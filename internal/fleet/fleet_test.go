package fleet

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

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
// croesus-client processes, and checks the merged report, the durability
// verdict, and the merged trace.
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

	if !res.DurabilityOK {
		t.Errorf("durability verdict not clean: %+v", res.Edges)
	}
	if len(res.Incidents) != 0 {
		t.Errorf("trace incidents: %v", res.Incidents)
	}
	r := res.Report
	if r == nil {
		t.Fatal("no merged report")
	}
	if f := r.Faults; f == nil || f.Crashes != 1 || f.Restarts != 1 || f.ReplayedRecords == 0 {
		t.Errorf("faults = %+v, want 1 crash, 1 restart, replayed records", f)
	}
	if len(r.Cameras) != 3 {
		t.Fatalf("report has %d cameras, want 3", len(r.Cameras))
	}
	if r.Frames == 0 || r.Validated == 0 {
		t.Errorf("frames = %d, validated = %d, want both > 0", r.Frames, r.Validated)
	}
	if r.FinalP50 <= 0 {
		t.Error("final p50 latency is zero")
	}
	d := r.Dynamic
	if d == nil {
		t.Fatal("no dynamic report")
	}
	if d.Migrations != 1 || d.WorkloadShifts != 1 || d.CloudLinkOutages != 1 || d.Leaves != 1 {
		t.Errorf("dynamic = %+v, want 1 migration, shift, cloud-link outage, and leave", *d)
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

// TestValidateForFleet rejects what standalone processes cannot run.
func TestValidateForFleet(t *testing.T) {
	base := func() *scenario.Scenario {
		return &scenario.Scenario{
			Topology: scenario.Topology{
				Edges:   []scenario.Edge{{ID: "e0"}, {ID: "e1"}},
				Cameras: []scenario.Camera{{ID: "a", Profile: "park-dog", Edge: "e0"}},
			},
		}
	}
	ok := base()
	if err := ValidateForFleet(ok); err != nil {
		t.Fatalf("plain scenario rejected: %v", err)
	}

	sharded := base()
	sharded.Topology.Sharded = true
	if err := ValidateForFleet(sharded); err == nil {
		t.Error("sharded scenario accepted")
	}

	crash := base()
	crash.Timeline = []scenario.Event{{At: 1, Do: scenario.KindEdgeCrash, Edge: "e0"}}
	if err := ValidateForFleet(crash); err != nil {
		t.Errorf("crash rejected: %v", err)
	}

	peer := base()
	peer.Topology.Sharded = true
	peer.Timeline = []scenario.Event{{At: 1, Do: scenario.KindLinkFault, A: "e0", B: "e1"}}
	if err := ValidateForFleet(peer); err == nil {
		t.Error("edge↔edge link fault accepted")
	}
}
