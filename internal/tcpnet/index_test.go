package tcpnet

import (
	"reflect"
	"testing"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/txn"
	"croesus/internal/video"
)

// indexEntries counts what an edge's txn.Manager still indexes: last-writer
// keys plus instances on its live and waiting lists. The lists are not part
// of the manager's API, so the test reads their lengths by reflection; call
// it only once the server has stopped.
func indexEntries(m *txn.Manager) int {
	v := reflect.ValueOf(m).Elem()
	return v.FieldByName("lastWriter").Len() + v.FieldByName("live").Len() + v.FieldByName("waiting").Len()
}

// TestEdgeIndexFollowsInFlightWindow: an edge's memory must follow what is
// in flight, not how long it has been up. 5 000 validated frames through one
// EdgeServer, eight outstanding at a time over real sockets, trigger some
// 20 000 transactions; once the last frame is answered the manager indexes a
// few hundred entries at most (it kept all of them for ever before the
// dependency index was swept), and neither the client nor the edge session
// keeps a record of any waited frame.
func TestEdgeIndexFollowsInFlightWindow(t *testing.T) {
	const (
		nFrames     = 5000
		outstanding = 8
		scale       = 1e-7 // modelled inference costs nothing: the software path sets the pace
	)
	cloud := newCloudServer(t, detect.YOLOv3Sim(detect.YOLO416, 42), scale)
	cloudAddr, err := cloud.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := NewEdgeServer(EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(42),
		CloudAddr: cloudAddr,
		TimeScale: scale,
		ThetaL:    0, ThetaU: 1, // validate everything: corrections and retractions happen
		Source: core.NewWorkloadSource(500, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeAddr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(edgeAddr)
	if err != nil {
		t.Fatal(err)
	}

	clip := video.NewGenerator(video.StreetVehicles(), 11).Generate(64)
	for i := 0; i < nFrames+outstanding; i++ {
		if i >= outstanding {
			if _, err := client.WaitFrame(i-outstanding, 30*time.Second); err != nil {
				t.Fatalf("frame %d: %v", i-outstanding, err)
			}
		}
		if i < nFrames {
			f := *clip[i%len(clip)]
			f.Index = i
			if err := client.Submit(&f, 0); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
	}
	// Every frame was waited: neither end keeps anything of it.
	if n := clientEntries(client); n != 0 {
		t.Errorf("client holds %d per-frame entries after %d waited frames, want 0", n, nFrames)
	}
	if n := sessionEntries(edge); n != 0 {
		t.Errorf("edge session holds %d per-frame entries after %d answered frames, want 0", n, nFrames)
	}
	client.Close()
	if err := edge.Close(); err != nil {
		t.Fatal(err)
	}

	st := edge.Manager().Stats()
	if st.InitialCommits < nFrames || st.Retractions == 0 {
		t.Fatalf("workload did not run as meant: %+v", st)
	}
	n := indexEntries(edge.Manager())
	t.Logf("%d transactions (%d retractions) over %d frames; %d index entries left", st.InitialCommits, st.Retractions, nFrames, n)
	if n > 1000 {
		t.Errorf("manager still indexes %d entries after %d transactions with nothing in flight", n, st.InitialCommits)
	}
}
