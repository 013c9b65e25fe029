package tcpnet

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/twopc"
	"croesus/internal/video"
)

// startDurableEdge brings up an edge-only server journaling to walPath.
func startDurableEdge(t *testing.T, walPath string) (*Client, *EdgeServer, func()) {
	t.Helper()
	edge, err := NewEdgeServer(EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(42),
		TimeScale: testScale,
		ThetaL:    0.4,
		ThetaU:    0.6,
		Source:    core.NewWorkloadSource(500, 7),
		WALPath:   walPath,
		WALNoSync: true,
	})
	if err != nil {
		t.Fatalf("edge: %v", err)
	}
	addr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("edge listen: %v", err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial edge: %v", err)
	}
	return client, edge, func() { client.Close(); edge.Close() }
}

// A durable edge journals its transactional writes; a restart on the same
// WAL path replays them to the identical store state — the respawn half of
// the fleet's crash/recover event.
func TestEdgeWALReplayAcrossRestart(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "edge.wal")
	client, edge, cleanup := startDurableEdge(t, walPath)

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
	if edge.WALReplayed() != 0 {
		t.Errorf("fresh edge replayed %d records, want 0", edge.WALReplayed())
	}
	if n, err := edge.VerifyWAL(); err != nil {
		t.Fatalf("durability verify on live edge: %v (after %d records)", n, err)
	}
	before := edge.Manager().Store.Snapshot()
	if len(before) == 0 {
		t.Fatal("no transactional writes landed; the test exercises nothing")
	}
	cleanup()

	// Respawn on the same WAL path: the store must come back identical.
	edge2, err := NewEdgeServer(EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(42),
		TimeScale: testScale,
		Source:    core.NewWorkloadSource(500, 7),
		WALPath:   walPath,
		WALNoSync: true,
	})
	if err != nil {
		t.Fatalf("respawn edge: %v", err)
	}
	defer edge2.Close()
	if edge2.WALReplayed() == 0 {
		t.Fatal("respawned edge replayed 0 records")
	}
	after := edge2.Manager().Store.Snapshot()
	if len(after) != len(before) {
		t.Fatalf("replayed store has %d keys, want %d", len(after), len(before))
	}
	for k, v := range before {
		rv, ok := after[k]
		if !ok || string(rv) != string(v) {
			t.Fatalf("key %q lost or changed across restart", k)
		}
	}
	if n, err := edge2.VerifyWAL(); err != nil {
		t.Fatalf("durability verify after replay (%d records): %v", n, err)
	}
}

// Checkpointing compacts the WAL to a state snapshot without changing what
// a replay recovers — after the frames land, and (tcp_saturate's shape:
// MS-SR, two clients) over and over while frames are still in flight.
func TestEdgeWALCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name     string
		protocol twopc.Protocol
		clients  int
		inFlight bool
	}{
		{"MS-IA one client, after the frames", twopc.MSIA, 1, false},
		{"MS-SR two clients, frames in flight", twopc.MSSR, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edge, err := NewEdgeServer(EdgeConfig{
				EdgeModel: detect.TinyYOLOSim(42),
				TimeScale: testScale,
				ThetaL:    0.4,
				ThetaU:    0.6,
				Protocol:  tc.protocol,
				Source:    core.NewWorkloadSource(500, 7),
				WALPath:   filepath.Join(t.TempDir(), "edge.wal"),
				WALNoSync: true,
			})
			if err != nil {
				t.Fatalf("edge: %v", err)
			}
			defer edge.Close()
			addr, err := edge.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("edge listen: %v", err)
			}
			var wg sync.WaitGroup
			for c := 0; c < tc.clients; c++ {
				client, err := Dial(addr)
				if err != nil {
					t.Fatalf("dial edge: %v", err)
				}
				defer client.Close()
				frames := video.NewGenerator(video.ParkDog(), int64(11+c)).Generate(8)
				for _, f := range frames {
					if err := client.Submit(f, 0); err != nil {
						t.Fatalf("submit %d: %v", f.Index, err)
					}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, f := range frames {
						if _, err := client.WaitFrame(f.Index, 10*time.Second); err != nil {
							t.Errorf("frame %d: %v", f.Index, err)
						}
					}
				}()
			}
			answered := make(chan struct{})
			go func() { wg.Wait(); close(answered) }()
			for tc.inFlight {
				if err := edge.CheckpointWAL(); err != nil {
					t.Fatalf("checkpoint in flight: %v", err)
				}
				select {
				case <-answered:
					tc.inFlight = false
				default:
				}
			}
			<-answered
			if err := edge.CheckpointWAL(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if _, err := edge.VerifyWAL(); err != nil {
				t.Fatalf("durability verify after checkpoint: %v", err)
			}
		})
	}
}

// The drain control (edge_retire) refuses new frames; the client's wait
// times out and the edge counts the refusal.
func TestEdgeDrainRefusesFrames(t *testing.T) {
	client, edge, cleanup := startDurableEdge(t, filepath.Join(t.TempDir(), "edge.wal"))
	defer cleanup()

	edge.SetDraining(true)
	f := video.NewGenerator(video.ParkDog(), 11).Generate(1)[0]
	if err := client.Submit(f, 0); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := client.WaitFrame(f.Index, 300*time.Millisecond); err == nil {
		t.Fatal("draining edge answered a frame")
	}
	deadline := time.Now().Add(5 * time.Second)
	for edge.Dropped() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if edge.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", edge.Dropped())
	}
	edge.SetDraining(false)
	f2 := video.NewGenerator(video.ParkDog(), 12).Generate(1)[0]
	if err := client.Submit(f2, 0); err != nil {
		t.Fatalf("submit after heal: %v", err)
	}
	if _, err := client.WaitFrame(f2.Index, 10*time.Second); err != nil {
		t.Fatalf("healed edge did not answer: %v", err)
	}
}
