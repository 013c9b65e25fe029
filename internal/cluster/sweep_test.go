package cluster

import (
	"fmt"
	"testing"
	"time"

	"croesus/internal/vclock"
	"croesus/internal/video"
)

// TestWaitingFollowsLiveWindow: the settled transactions a fleet's managers
// hold between sweeps follow the live window, and a drained fleet's
// managers hold nothing. The fleet is a reduced benchmark sim fleet: four
// cameras pinned to each edge, unsharded MS-IA, a cloud provisioned so that
// nothing sheds. A sim participant sums the waiting and the live instances
// over every edge's manager each 50 ms of virtual time. A manager sweeps
// once 2·kept + live + 1 terminal instances wait, where kept and live are
// what its last sweep walked; on this fleet cascades are short and a sweep
// keeps a handful at most, so summed over the edges that is the live window
// plus about one per edge. Under a fixed allowance of 64 per manager, this
// fleet's waiting peaked at 1 530 beside 431 live.
func TestWaitingFollowsLiveWindow(t *testing.T) {
	const edges, perEdge, frames = 32, 4, 32
	profiles := video.AllProfiles()
	clk := vclock.NewSim()
	cfg := Config{
		Clock:   clk,
		Batcher: BatcherConfig{MaxBatch: 8, SLO: 80 * time.Millisecond, MaxPending: 256, CloudSpeed: 64},
	}
	for e := 0; e < edges; e++ {
		cfg.Edges = append(cfg.Edges, EdgeSpec{ID: fmt.Sprintf("e%02d", e)})
	}
	for i := 0; i < edges*perEdge; i++ {
		cfg.Cameras = append(cfg.Cameras, CameraSpec{
			ID: fmt.Sprintf("c%03d", i), Profile: profiles[i%len(profiles)], Seed: int64(1000 + 7*i),
			Frames: frames, Edge: fmt.Sprintf("e%02d", i/perEdge),
		})
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var peakWaiting, peakLive, samples int
	c.Start()
	clk.Go(func() {
		for {
			clk.Sleep(50 * time.Millisecond)
			c.mu.Lock()
			idle := c.pending == 0
			c.mu.Unlock()
			if idle {
				return
			}
			waiting, live := 0, 0
			for _, e := range c.edges {
				_, l, w := indexOf(e.Mgr)
				waiting += w
				live += l
			}
			peakWaiting = max(peakWaiting, waiting)
			peakLive = max(peakLive, live)
			samples++
		}
	})
	c.StartCameras()
	rep := c.Drain()
	if rep.Frames != edges*perEdge*frames || rep.TxnsTriggered == 0 {
		t.Fatalf("fleet scored %d frames and %d transactions, want %d frames and some transactions", rep.Frames, rep.TxnsTriggered, edges*perEdge*frames)
	}
	t.Logf("%d transactions, %d samples: peak Σwaiting %d, peak Σlive %d", rep.TxnsTriggered, samples, peakWaiting, peakLive)
	if peakLive == 0 {
		t.Fatalf("no sample saw a live transaction")
	}
	if bound := peakLive + edges; peakWaiting > bound {
		t.Errorf("settled transactions waiting peaked at %d, above the live window's bound %d (peak live %d + %d edges)",
			peakWaiting, bound, peakLive, edges)
	}
	for _, e := range c.edges {
		if lw, live, waiting := indexOf(e.Mgr); lw+live+waiting != 0 {
			t.Errorf("edge %s after Drain: lastWriter %d, live %d, waiting %d; want all 0", e.Spec.ID, lw, live, waiting)
		}
	}
}
