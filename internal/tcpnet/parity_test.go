package tcpnet

import (
	"testing"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/twopc"
	"croesus/internal/video"
)

// TestMSSROverTCP runs the real deployment under multi-stage
// serializability — fleet parity the old hardcoded-MS-IA edge lacked.
func TestMSSROverTCP(t *testing.T) {
	cloud := newCloudServer(t, detect.YOLOv3Sim(detect.YOLO416, 42), testScale)
	cloudAddr, err := cloud.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := NewEdgeServer(EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(42),
		CloudAddr: cloudAddr,
		TimeScale: testScale,
		ThetaL:    0, ThetaU: 1,
		Protocol: twopc.MSSR,
		Source:   core.NewWorkloadSource(500, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeAddr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	client, err := Dial(edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	frames := video.NewGenerator(video.ParkDog(), 11).Generate(6)
	for _, f := range frames {
		if err := client.Submit(f, 0); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	for _, f := range frames {
		if _, err := client.WaitFrame(f.Index, 15*time.Second); err != nil {
			t.Fatalf("frame %d: %v", f.Index, err)
		}
	}
	st := edge.Manager().Stats()
	if st.InitialCommits == 0 || st.FinalCommits == 0 {
		t.Errorf("MS-SR committed nothing: %+v", st)
	}
	if got := edge.Served(); got != int64(len(frames)) {
		t.Errorf("served %d frames under MS-SR, want %d", got, len(frames))
	}
}

// TestCloudShedsUnderOverloadOverTCP provisions the cloud to overload
// (one-frame batches, a one-deep admission queue, a starved GPU) and
// floods it: some frames must come back shed, finalized with the edge
// answer — the fleet's degradation mode working over real sockets, with
// the shed accounted at the cloud, the edge, and the client.
func TestCloudShedsUnderOverloadOverTCP(t *testing.T) {
	cloud, err := NewCloudServerWith(CloudConfig{
		Model:      detect.YOLOv3Sim(detect.YOLO416, 42),
		TimeScale:  testScale,
		MaxBatch:   1,
		MaxPending: 1,
		CloudSpeed: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	cloudAddr, err := cloud.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := NewEdgeServer(EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(42),
		CloudAddr: cloudAddr,
		TimeScale: testScale,
		ThetaL:    0, ThetaU: 1, // validate everything visible
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeAddr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	client, err := Dial(edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	frames := video.NewGenerator(video.StreetVehicles(), 11).Generate(24)
	for _, f := range frames {
		if err := client.Submit(f, 0); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	shed, validatedLabels := 0, 0
	for _, f := range frames {
		r, err := client.WaitFrame(f.Index, 30*time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", f.Index, err)
		}
		if r.Shed {
			shed++
			if len(r.Final) != len(r.Initial) {
				t.Errorf("frame %d: shed but final labels differ from the edge answer", f.Index)
			}
		} else if r.SentToCloud {
			validatedLabels++
		}
	}
	if shed == 0 {
		t.Fatal("overloaded cloud shed nothing — admission control is not acting over TCP")
	}
	if validatedLabels == 0 {
		t.Fatal("every frame shed — the batcher validated nothing")
	}
	if cloud.Shed() == 0 || edge.Shed() == 0 {
		t.Errorf("shed accounting disagrees: cloud %d, edge %d, client %d", cloud.Shed(), edge.Shed(), shed)
	}
	if bs := cloud.BatcherStats(); bs.Shed == 0 || bs.Batches == 0 {
		t.Errorf("batcher stats unpopulated: %+v", bs)
	}
}

// TestMultiEdgeSharedCloud runs two edge servers against one cloud — the
// multi-edge parity point: both edges' requests coalesce in the one shared
// batcher.
func TestMultiEdgeSharedCloud(t *testing.T) {
	cloud := newCloudServer(t, detect.YOLOv3Sim(detect.YOLO416, 42), testScale)
	cloudAddr, err := cloud.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	clients := make([]*Client, 2)
	for i := range clients {
		edge, err := NewEdgeServer(EdgeConfig{
			EdgeModel: detect.TinyYOLOSim(42),
			CloudAddr: cloudAddr,
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
		if clients[i], err = Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}

	const perEdge = 5
	for i, cl := range clients {
		frames := video.NewGenerator(video.ParkDog(), int64(20+i)).Generate(perEdge)
		for _, f := range frames {
			if err := cl.Submit(f, 0); err != nil {
				t.Fatalf("edge %d submit: %v", i, err)
			}
		}
	}
	for i, cl := range clients {
		for idx := 0; idx < perEdge; idx++ {
			if _, err := cl.WaitFrame(idx, 15*time.Second); err != nil {
				t.Fatalf("edge %d frame %d: %v", i, idx, err)
			}
		}
	}
	if got := cloud.Handled() + cloud.Shed(); got == 0 {
		t.Fatal("the shared cloud saw no traffic from either edge")
	}
	if bs := cloud.BatcherStats(); bs.Frames == 0 {
		t.Errorf("shared batcher carried no frames: %+v", bs)
	}
}
