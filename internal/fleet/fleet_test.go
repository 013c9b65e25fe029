package fleet

import (
	"path/filepath"
	"testing"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/scenario"
	"croesus/internal/tcpnet"
	"croesus/internal/wire"
)

// testScale compresses modeled time 50× so the attach-mode run finishes
// in well under a second of wall time.
const testScale = 0.02

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

// startAttachFleet stands up a real cloud and two real edges (each with a
// WAL and a control server — exactly what the binaries run), and returns
// the Attach descriptor plus a cleanup.
func startAttachFleet(t *testing.T) (*Attach, func()) {
	t.Helper()
	dir := t.TempDir()

	cloud, err := tcpnet.NewCloudServerWith(tcpnet.CloudConfig{
		Model:     detect.YOLOv3Sim(detect.YOLO416, 42),
		TimeScale: testScale,
	})
	if err != nil {
		t.Fatalf("cloud: %v", err)
	}
	cloudAddr, err := cloud.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("cloud listen: %v", err)
	}
	cloudCtl, err := ServeControl("127.0.0.1:0", CloudHandlers(cloud, nil))
	if err != nil {
		t.Fatalf("cloud control: %v", err)
	}

	var cleanups []func()
	cleanups = append(cleanups, func() { cloudCtl.Close(); cloud.Close() })
	attach := &Attach{CloudControl: cloudCtl.Addr()}
	for _, id := range []string{"e0", "e1"} {
		edge, err := tcpnet.NewEdgeServer(tcpnet.EdgeConfig{
			EdgeModel: detect.TinyYOLOSim(42),
			CloudAddr: cloudAddr,
			TimeScale: testScale,
			ThetaL:    0.4,
			ThetaU:    0.6,
			Source:    core.NewWorkloadSource(500, 7),
			WALPath:   filepath.Join(dir, "edge-"+id+".wal"),
			WALNoSync: true,
		})
		if err != nil {
			t.Fatalf("edge %s: %v", id, err)
		}
		addr, err := edge.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("edge %s listen: %v", id, err)
		}
		ctl, err := ServeControl("127.0.0.1:0", EdgeHandlers(id, edge, nil))
		if err != nil {
			t.Fatalf("edge %s control: %v", id, err)
		}
		e, c := edge, ctl
		cleanups = append(cleanups, func() { c.Close(); e.Close() })
		attach.Edges = append(attach.Edges, AttachEdge{ID: id, Addr: addr, Control: ctl.Addr()})
	}
	return attach, func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
}

// rate returns a pointer — timeline literals need one.
func rate(v float64) *float64 { return &v }

// TestFleetAttachTimeline runs a full scenario — workload shift,
// migration, cloud-link fault with heal, WAL checkpoint, camera leave —
// against real tcpnet servers through the orchestrator's attach mode,
// and checks the merged report and the durability verdict.
func TestFleetAttachTimeline(t *testing.T) {
	attach, cleanup := startAttachFleet(t)
	defer cleanup()

	s := &scenario.Scenario{
		Name: "fleet-attach",
		Topology: scenario.Topology{
			Edges: []scenario.Edge{{ID: "e0"}, {ID: "e1"}},
			Cameras: []scenario.Camera{
				{ID: "a", Profile: "park-dog", Edge: "e0", Frames: 12},
				{ID: "b", Profile: "street-vehicles", Edge: "e0", Frames: 12},
			},
		},
		Timeline: []scenario.Event{
			{At: scenario.Duration(500 * time.Millisecond), Do: scenario.KindWorkloadShift, Camera: "a", Rate: rate(2)},
			{At: scenario.Duration(1 * time.Second), Do: scenario.KindMigrateCamera, Camera: "a", To: "e1"},
			{At: scenario.Duration(1500 * time.Millisecond), Do: scenario.KindLinkFault, A: "e0", B: "cloud",
				Heal: scenario.Duration(2500 * time.Millisecond)},
			{At: scenario.Duration(2 * time.Second), Do: scenario.KindCheckpoint},
			{At: scenario.Duration(3 * time.Second), Do: scenario.KindCameraLeave, Camera: "b"},
		},
	}
	res, err := Run(s, Options{
		TimeScale:    testScale,
		FrameTimeout: 10 * time.Second,
		Attach:       attach,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	r := res.Report
	if r == nil {
		t.Fatal("no merged report")
	}
	if len(r.Cameras) != 2 {
		t.Fatalf("report has %d cameras, want 2", len(r.Cameras))
	}
	if r.Frames == 0 {
		t.Fatal("no frames completed")
	}
	if r.FinalP50 <= 0 {
		t.Error("final p50 latency is zero")
	}
	if !res.DurabilityOK {
		t.Errorf("durability verdict not clean: %+v", res.Edges)
	}
	for _, er := range res.Edges {
		if !er.DurableOK {
			t.Errorf("edge %s durability: %s", er.Edge, er.DurableErr)
		}
	}
	if r.Dynamic == nil {
		t.Fatal("no dynamic report")
	}
	d := r.Dynamic
	if d.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", d.Migrations)
	}
	if d.WorkloadShifts != 1 {
		t.Errorf("workload shifts = %d, want 1", d.WorkloadShifts)
	}
	if d.CloudLinkOutages != 1 {
		t.Errorf("cloud link outages = %d, want 1", d.CloudLinkOutages)
	}
	if d.Leaves != 1 {
		t.Errorf("leaves = %d, want 1", d.Leaves)
	}
	// Camera a ends on e1 (the migration's destination).
	for _, cr := range res.Clients {
		if cr.Camera == "a" && cr.Redials == 0 {
			t.Errorf("camera a migrated but never redialed: %+v", cr)
		}
	}
	// The edges served traffic and the fleet validated frames at the
	// cloud through real sockets.
	var served int64
	for _, er := range res.Edges {
		served += er.Served
	}
	if served == 0 {
		t.Error("edges served no frames")
	}
	if r.Validated == 0 {
		t.Error("no frame was cloud-validated")
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
	if err := ValidateForFleet(ok, false); err != nil {
		t.Fatalf("plain scenario rejected: %v", err)
	}

	sharded := base()
	sharded.Topology.Sharded = true
	if err := ValidateForFleet(sharded, false); err == nil {
		t.Error("sharded scenario accepted")
	}

	crash := base()
	crash.Timeline = []scenario.Event{{At: 1, Do: scenario.KindEdgeCrash, Edge: "e0"}}
	if err := ValidateForFleet(crash, false); err != nil {
		t.Errorf("crash rejected in spawn mode: %v", err)
	}
	if err := ValidateForFleet(crash, true); err == nil {
		t.Error("crash accepted in attach mode")
	}

	peer := base()
	peer.Topology.Sharded = true
	peer.Timeline = []scenario.Event{{At: 1, Do: scenario.KindLinkFault, A: "e0", B: "e1"}}
	if err := ValidateForFleet(peer, false); err == nil {
		t.Error("edge↔edge link fault accepted")
	}
}
