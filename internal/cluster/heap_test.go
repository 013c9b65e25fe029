package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"croesus/internal/vclock"
	"croesus/internal/video"
)

// TestRunRetainsBoundedHeap: what a run leaves alive, counted from before
// the fleet is built, is its report accumulators (a 32 B record per frame
// and the latency sketches) and its data stacks, not every transaction it
// ever ran nor its video. Each edge's txn.Manager forgets an instance once
// nothing in flight can retract it; before it did, this fleet retained
// 7.5 KiB per frame past set-up. Frames are generated as they are captured
// and scored as they finalize; when the fleet generated every camera's
// video at set-up and kept every frame's label sets for the report, it
// retained 3.3 KiB per frame counted this way. Drain sweeps every manager
// once, so the settled transactions a manager still waited to sweep go
// too: 2.0 KiB per frame before that, 1.1 KiB while the fleet kept every
// frame's outcome and each manager a 4 096-entry commit history. With
// neither it retains about 700 B (690–745 under -race); the bound is that
// plus a quarter.
func TestRunRetainsBoundedHeap(t *testing.T) {
	if n := unsafe.Sizeof(frameRecord{}); n > 40 {
		t.Errorf("a frame record is %d B, want ≤ 40", n)
	}
	const cameras, frames = 16, 64
	profiles := []video.Profile{video.ParkDog(), video.StreetVehicles(), video.MallSurveillance(), video.AirportRunway()}
	cfg := Config{
		Clock:   vclock.NewSim(),
		Edges:   []EdgeSpec{{ID: "e0"}, {ID: "e1"}, {ID: "e2"}, {ID: "e3"}},
		Batcher: BatcherConfig{MaxBatch: 8, SLO: 80 * time.Millisecond},
	}
	for i := 0; i < cameras; i++ {
		cfg.Cameras = append(cfg.Cameras, CameraSpec{
			ID: fmt.Sprintf("cam%02d", i), Profile: profiles[i%len(profiles)], Seed: int64(100 + i), Frames: frames,
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if rep.Frames != cameras*frames || rep.TxnsTriggered == 0 {
		t.Fatalf("run scored %d frames and %d transactions, want %d frames and some transactions", rep.Frames, rep.TxnsTriggered, cameras*frames)
	}
	perFrame := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(rep.Frames)
	t.Logf("%d frames, %d transactions: %.0f B of heap retained per frame", rep.Frames, rep.TxnsTriggered, perFrame)
	if perFrame > 896 {
		t.Errorf("run retains %.0f B per frame, want ≤ 896 B", perFrame)
	}
	runtime.KeepAlive(c)
}
