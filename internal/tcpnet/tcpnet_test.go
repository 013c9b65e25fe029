package tcpnet

import (
	"testing"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/metrics"
	"croesus/internal/node"
	"croesus/internal/video"
)

const testScale = 0.01 // 1.12s cloud inference → 11ms in tests

// newCloudServer returns a cloud server for the model with default
// batching.
func newCloudServer(t *testing.T, model detect.Model, timeScale float64) *CloudServer {
	t.Helper()
	s, err := NewCloudServerWith(CloudConfig{Model: model, TimeScale: timeScale})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startStack brings up cloud + edge on loopback and returns a connected
// client plus a cleanup function.
func startStack(t *testing.T, thetaL, thetaU float64, withTxns bool) (*Client, *EdgeServer, *CloudServer, func()) {
	t.Helper()
	cloudModel := detect.YOLOv3Sim(detect.YOLO416, 42)
	cloud := newCloudServer(t, cloudModel, testScale)
	cloudAddr, err := cloud.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("cloud listen: %v", err)
	}
	cfg := EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(42),
		CloudAddr: cloudAddr,
		TimeScale: testScale,
		ThetaL:    thetaL,
		ThetaU:    thetaU,
	}
	if withTxns {
		cfg.Source = core.NewWorkloadSource(500, 7)
	}
	edge, err := NewEdgeServer(cfg)
	if err != nil {
		t.Fatalf("edge: %v", err)
	}
	edgeAddr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("edge listen: %v", err)
	}
	client, err := Dial(edgeAddr)
	if err != nil {
		t.Fatalf("dial edge: %v", err)
	}
	cleanup := func() {
		client.Close()
		edge.Close()
		cloud.Close()
	}
	return client, edge, cloud, cleanup
}

func TestEndToEndValidation(t *testing.T) {
	client, edge, cloud, cleanup := startStack(t, 0.0, 1.0, true) // validate everything
	defer cleanup()

	prof := video.ParkDog()
	frames := video.NewGenerator(prof, 11).Generate(8)
	for _, f := range frames {
		if err := client.Submit(f, 0); err != nil {
			t.Fatalf("submit %d: %v", f.Index, err)
		}
	}
	cloudModel := detect.YOLOv3Sim(detect.YOLO416, 42)
	var counts metrics.Counts
	for _, f := range frames {
		r, err := client.WaitFrame(f.Index, 10*time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", f.Index, err)
		}
		if r.FinalLatency < r.InitialLatency {
			t.Errorf("frame %d: final %v before initial %v", f.Index, r.FinalLatency, r.InitialLatency)
		}
		truth := cloudModel.Detect(f).Detections
		counts.Add(metrics.ScoreClass(r.Final, truth, prof.QueryClass, 0.1))
	}
	// Validated frames end at cloud truth; unvalidated ones have no
	// detections in (0,1) — nearly impossible — so F must be ≈ 1.
	if f1 := counts.F1(); f1 < 0.95 {
		t.Errorf("end-to-end F1 = %.3f, want ≈ 1 under full validation", f1)
	}
	if got := cloud.Handled(); got == 0 {
		t.Error("cloud handled no frames")
	}
	if got := edge.Served(); got != 8 {
		t.Errorf("edge served %d frames, want 8", got)
	}
	// Transactions ran: every initial commit is resolved, either by a
	// final commit or by a cascading retraction from a concurrent
	// erroneous transaction (the MS-IA apology path).
	st := edge.Manager().Stats()
	if st.InitialCommits == 0 {
		t.Error("no transactions committed")
	}
	if unresolved := st.InitialCommits - st.FinalCommits; unresolved < 0 || unresolved > st.Retractions {
		t.Errorf("unresolved transactions: %d initial, %d final, %d retractions",
			st.InitialCommits, st.FinalCommits, st.Retractions)
	}
}

func TestEdgeOnlyWhenIntervalEmpty(t *testing.T) {
	client, _, cloud, cleanup := startStack(t, 0.5, 0.5, false) // never validate
	defer cleanup()

	frames := video.NewGenerator(video.ParkDog(), 11).Generate(5)
	for _, f := range frames {
		if err := client.Submit(f, 0); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	for _, f := range frames {
		r, err := client.WaitFrame(f.Index, 10*time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", f.Index, err)
		}
		if r.SentToCloud {
			t.Errorf("frame %d validated despite empty interval", f.Index)
		}
	}
	if got := cloud.Handled(); got != 0 {
		t.Errorf("cloud handled %d frames, want 0", got)
	}
}

func TestPaddingCarriesWeight(t *testing.T) {
	client, _, _, cleanup := startStack(t, 0, 1, false)
	defer cleanup()
	f := video.NewGenerator(video.ParkDog(), 11).Next()
	if err := client.Submit(f, 64<<10); err != nil {
		t.Fatalf("submit with padding: %v", err)
	}
	if _, err := client.WaitFrame(f.Index, 10*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

func TestCloudUnavailableFallsBackToEdge(t *testing.T) {
	// Edge configured with no cloud: every frame finalizes locally.
	edge, err := NewEdgeServer(EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(42),
		TimeScale: testScale,
		ThetaL:    0, ThetaU: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	f := video.NewGenerator(video.ParkDog(), 11).Next()
	if err := client.Submit(f, 0); err != nil {
		t.Fatal(err)
	}
	r, err := client.WaitFrame(f.Index, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.SentToCloud {
		t.Error("frame marked as validated with no cloud configured")
	}
	if len(r.Final) != len(r.Initial) {
		t.Error("local finalization changed the label set")
	}
}

func TestConcurrentClients(t *testing.T) {
	cloudModel := detect.YOLOv3Sim(detect.YOLO416, 42)
	cloud := newCloudServer(t, cloudModel, testScale)
	cloudAddr, _ := cloud.Listen("127.0.0.1:0")
	defer cloud.Close()
	edge, _ := NewEdgeServer(EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(42),
		CloudAddr: cloudAddr,
		TimeScale: testScale,
		ThetaL:    0, ThetaU: 1,
		Source: core.NewWorkloadSource(500, 7),
	})
	edgeAddr, _ := edge.Listen("127.0.0.1:0")
	defer edge.Close()

	const clients, perClient = 3, 4
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			client, err := Dial(edgeAddr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			frames := video.NewGenerator(video.ParkDog(), int64(100+c)).Generate(perClient)
			for _, f := range frames {
				if err := client.Submit(f, 0); err != nil {
					errs <- err
					return
				}
			}
			for _, f := range frames {
				if _, err := client.WaitFrame(f.Index, 15*time.Second); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatalf("client failed: %v", err)
		}
	}
	if got := edge.Served(); got != clients*perClient {
		t.Errorf("edge served %d, want %d", got, clients*perClient)
	}
}

func TestWaitUnknownFrame(t *testing.T) {
	client, _, _, cleanup := startStack(t, 0, 1, false)
	defer cleanup()
	if _, err := client.WaitFrame(999, time.Second); err == nil {
		t.Error("WaitFrame on unsubmitted frame succeeded")
	}
}

// TestGraphOverCloudSocket runs a three-section graph on the edge server:
// the middle node runs in the server's compute pool, the last crosses the
// real cloud socket through the same Validate call the two-stage graph
// uses, so every frame commits three boundaries and the cloud sees every
// frame.
func TestGraphOverCloudSocket(t *testing.T) {
	cloud := newCloudServer(t, detect.YOLOv3Sim(detect.YOLO416, 42), testScale)
	cloudAddr, err := cloud.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("cloud listen: %v", err)
	}
	defer cloud.Close()
	edge, err := NewEdgeServer(EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(42),
		CloudAddr: cloudAddr,
		TimeScale: testScale,
		Source:    core.NewWorkloadSource(500, 7),
		Graph: &node.GraphSpec{Nodes: []node.GraphNodeSpec{
			{Name: "detect", Tier: "edge"},
			{Name: "classify", Tier: "edge", Model: node.ModelYOLO320},
			{Name: "verify", Tier: "cloud"},
		}},
	})
	if err != nil {
		t.Fatalf("edge: %v", err)
	}
	defer edge.Close()
	edgeAddr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("edge listen: %v", err)
	}
	client, err := Dial(edgeAddr)
	if err != nil {
		t.Fatalf("dial edge: %v", err)
	}
	defer client.Close()

	frames := video.NewGenerator(video.ParkDog(), 11).Generate(6)
	for _, f := range frames {
		if err := client.Submit(f, 0); err != nil {
			t.Fatalf("submit %d: %v", f.Index, err)
		}
	}
	for _, f := range frames {
		if _, err := client.WaitFrame(f.Index, 10*time.Second); err != nil {
			t.Fatalf("frame %d: %v", f.Index, err)
		}
	}
	if got := cloud.Handled(); got != int64(len(frames)) {
		t.Errorf("cloud handled %d frames, want %d", got, len(frames))
	}
	st := edge.Manager().Stats()
	if st.InitialCommits == 0 || st.SectionCommits == 0 {
		t.Errorf("stats %+v: the middle boundary never committed", st)
	}
	if unresolved := st.InitialCommits - st.FinalCommits; unresolved < 0 || unresolved > st.Retractions {
		t.Errorf("unresolved transactions: %d initial, %d final, %d retractions",
			st.InitialCommits, st.FinalCommits, st.Retractions)
	}
}

// TestEdgeSlotsDefault: an edge server left at the default runs as many
// inference slots as a simulated edge does, so one scenario runs the same
// compute pool on the sim and on croesus-edge processes (the scenario
// documents "slots" as default 2).
func TestEdgeSlotsDefault(t *testing.T) {
	s, err := NewEdgeServer(EdgeConfig{EdgeModel: detect.TinyYOLOSim(42), TimeScale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.Slots != 2 {
		t.Errorf("default edge slots = %d, want 2, as a simulated edge runs", s.cfg.Slots)
	}
}

// TestNewEdgeServerRejectsBadConfig: a standalone edge refuses the
// configurations scenario.Validate refuses for a simulated one, with an
// error rather than a panic or a silently empty validation interval.
func TestNewEdgeServerRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*EdgeConfig)
		ok   bool
	}{
		{"defaults", func(*EdgeConfig) {}, true},
		{"empty interval", func(c *EdgeConfig) { c.ThetaL, c.ThetaU = 0.5, 0.5 }, true},
		{"no edge model", func(c *EdgeConfig) { c.EdgeModel = nil }, false},
		{"negative slots", func(c *EdgeConfig) { c.Slots = -1 }, false},
		{"theta_l above theta_u", func(c *EdgeConfig) { c.ThetaL, c.ThetaU = 0.7, 0.4 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := EdgeConfig{EdgeModel: detect.TinyYOLOSim(42), TimeScale: testScale, ThetaL: 0.4, ThetaU: 0.62}
			tc.edit(&cfg)
			s, err := NewEdgeServer(cfg)
			if s != nil {
				defer s.Close()
			}
			if (err == nil) != tc.ok {
				t.Errorf("NewEdgeServer: err = %v, want ok = %v", err, tc.ok)
			}
		})
	}
}
