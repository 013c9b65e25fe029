package cluster

import (
	"math"
	"reflect"
	"testing"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/node"
	"croesus/internal/twopc"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// fourCamTwoEdge is the canonical test fleet: four cameras with distinct
// profiles and seeds over two edges.
func fourCamTwoEdge(clk vclock.Clock, bcfg BatcherConfig) Config {
	return Config{
		Clock: clk,
		Cameras: []CameraSpec{
			{ID: "park", Profile: video.ParkDog(), Seed: 11, Frames: 60},
			{ID: "street", Profile: video.StreetVehicles(), Seed: 12, Frames: 60},
			{ID: "mall", Profile: video.MallSurveillance(), Seed: 13, Frames: 60},
			{ID: "airport", Profile: video.AirportRunway(), Seed: 14, Frames: 60},
		},
		Edges:   []EdgeSpec{{ID: "west"}, {ID: "east"}},
		Batcher: bcfg,
	}
}

// TestEndToEnd drives four cameras over two edges through one batched
// cloud validator and checks the report's structural invariants.
func TestEndToEnd(t *testing.T) {
	clk := vclock.NewSim()
	cfg := fourCamTwoEdge(clk, BatcherConfig{MaxBatch: 4, SLO: 80 * time.Millisecond})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run()

	if len(rep.Cameras) != 4 {
		t.Fatalf("got %d camera reports, want 4", len(rep.Cameras))
	}
	if rep.Frames != 240 {
		t.Fatalf("fleet frames = %d, want 240", rep.Frames)
	}
	// Round-robin over two edges: two cameras per edge.
	for _, e := range c.Edges() {
		if len(e.Cameras) != 2 {
			t.Fatalf("edge %s has %d cameras, want 2", e.Spec.ID, len(e.Cameras))
		}
	}

	// Per-camera metrics must sum to fleet totals.
	var frames, validated, shed, lost, txns, corrections, apologies int
	for _, cr := range rep.Cameras {
		s := cr.Summary
		frames += s.Frames
		validated += s.Validated
		shed += s.Shed
		lost += s.CloudLost
		txns += s.TxnsTriggered
		corrections += s.Corrections
		apologies += s.Apologies
	}
	if frames != rep.Frames || validated != rep.Validated || shed != rep.Shed || lost != rep.Lost {
		t.Errorf("per-camera sums (frames=%d validated=%d shed=%d lost=%d) != fleet totals (%d, %d, %d, %d)",
			frames, validated, shed, lost, rep.Frames, rep.Validated, rep.Shed, rep.Lost)
	}
	if txns != rep.TxnsTriggered || corrections != rep.Corrections || apologies != rep.Apologies {
		t.Errorf("per-camera txn sums (%d, %d, %d) != fleet totals (%d, %d, %d)",
			txns, corrections, apologies, rep.TxnsTriggered, rep.Corrections, rep.Apologies)
	}

	// Every validated frame went through the batcher, exactly once.
	if rep.Batcher.Frames != rep.Validated {
		t.Errorf("batcher carried %d frames, fleet validated %d", rep.Batcher.Frames, rep.Validated)
	}
	if rep.Validated == 0 {
		t.Error("no frames were validated; thresholds or profiles are degenerate")
	}

	// Batching must respect both caps.
	if rep.Batcher.MaxBatch > 4 {
		t.Errorf("batch of %d exceeds size cap 4", rep.Batcher.MaxBatch)
	}
	if rep.Batcher.SLOViolations != 0 {
		t.Errorf("%d SLO violations; max flush wait %v", rep.Batcher.SLOViolations, rep.Batcher.MaxFlushWait)
	}
	if rep.Batcher.MaxFlushWait > 80*time.Millisecond {
		t.Errorf("max flush wait %v exceeds SLO 80ms", rep.Batcher.MaxFlushWait)
	}
	if rep.Batcher.Batches > 1 && rep.Batcher.MeanBatch <= 1.0 {
		t.Errorf("mean batch size %.2f — the batcher never coalesced", rep.Batcher.MeanBatch)
	}
	if rep.ThroughputFPS <= 0 || rep.Elapsed <= 0 {
		t.Errorf("degenerate throughput %f over %v", rep.ThroughputFPS, rep.Elapsed)
	}
}

// TestDeterminism runs the same fleet twice and demands identical
// reports — the whole point of the virtual clock.
func TestDeterminism(t *testing.T) {
	run := func() *ClusterReport {
		rep, err := Run(fourCamTwoEdge(vclock.NewSim(), BatcherConfig{MaxBatch: 4, SLO: 80 * time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", a.Format(), b.Format())
	}
}

// TestAccuracyMatchesSinglePipeline checks the acceptance criterion:
// with an uncontended batcher, each camera's accuracy equals the
// single-pipeline ModeCroesus result for the same profile and seed —
// batching changes latency, never labels.
func TestAccuracyMatchesSinglePipeline(t *testing.T) {
	specs := []CameraSpec{
		{ID: "park", Profile: video.ParkDog(), Seed: 11, Frames: 80},
		{ID: "street", Profile: video.StreetVehicles(), Seed: 12, Frames: 80},
		{ID: "mall", Profile: video.MallSurveillance(), Seed: 13, Frames: 80},
		{ID: "airport", Profile: video.AirportRunway(), Seed: 14, Frames: 80},
	}
	clk := vclock.NewSim()
	c, err := New(Config{
		Clock:   clk,
		Cameras: specs,
		Edges:   []EdgeSpec{{ID: "west"}, {ID: "east"}},
		// Generous pending cap: nothing is shed, so labels must match
		// the unbatched pipeline exactly.
		Batcher: BatcherConfig{MaxBatch: 8, SLO: 100 * time.Millisecond, MaxPending: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run()
	if rep.Shed != 0 || rep.Lost != 0 {
		t.Fatalf("expected no degradation in the uncontended fleet, got shed=%d lost=%d", rep.Shed, rep.Lost)
	}

	for i, cr := range rep.Cameras {
		single := singlePipelineF1(t, specs[i])
		if math.Abs(cr.Summary.F1Final-single) > 1e-9 {
			t.Errorf("camera %s: cluster F1Final=%.6f, single-pipeline=%.6f", cr.Camera, cr.Summary.F1Final, single)
		}
		if cr.Summary.BU == 0 {
			t.Errorf("camera %s validated nothing; the comparison is vacuous", cr.Camera)
		}
	}
}

// singlePipelineF1 runs one camera through the classic single-edge
// ModeCroesus pipeline with the same models, seeds, and thresholds.
func singlePipelineF1(t *testing.T, cs CameraSpec) float64 {
	t.Helper()
	clk := vclock.NewSim()
	frames := video.NewGenerator(cs.Profile, cs.Seed).Generate(cs.Frames)
	cloud := detect.YOLOv3Sim(detect.YOLO416, 42)
	asm := node.New(clk, twopc.MSIA)
	p, err := core.New(core.Config{
		Clock:      clk,
		Mode:       core.ModeCroesus,
		EdgeModel:  detect.TinyYOLOSim(42),
		CloudModel: cloud,
		ThetaL:     0.40,
		ThetaU:     0.62,
		Source:     core.NewWorkloadSource(1000, cs.Seed),
		CC:         asm.CC,
		Mgr:        asm.Mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := p.ProcessVideo(frames)
	truth := core.TruthFromModel(cloud, frames)
	return core.Summarize(cs.Profile.Name, core.ModeCroesus, cs.Profile.QueryClass, outs, truth, 0.10).F1Final
}

// TestOverloadSheds pushes a six-camera fleet through a deliberately
// starved batcher and checks Croesus' degradation mode: frames are shed
// rather than the SLO violated, and every shed frame keeps its edge
// answer.
func TestOverloadSheds(t *testing.T) {
	clk := vclock.NewSim()
	cams := []CameraSpec{
		{ID: "c0", Profile: video.MallSurveillance(), Seed: 21, Frames: 50},
		{ID: "c1", Profile: video.MallSurveillance(), Seed: 22, Frames: 50},
		{ID: "c2", Profile: video.StreetPedestrians(), Seed: 23, Frames: 50},
		{ID: "c3", Profile: video.StreetPedestrians(), Seed: 24, Frames: 50},
		{ID: "c4", Profile: video.ParkDog(), Seed: 25, Frames: 50},
		{ID: "c5", Profile: video.ParkDog(), Seed: 26, Frames: 50},
	}
	c, err := New(Config{
		Clock:   clk,
		Cameras: cams,
		Edges:   []EdgeSpec{{ID: "west"}, {ID: "east"}},
		// A starved cloud: one slow slot, tiny queue. The fleet's
		// validate traffic cannot all fit.
		Batcher: BatcherConfig{MaxBatch: 2, SLO: 40 * time.Millisecond, MaxPending: 2, CloudSpeed: 0.10},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run()

	if rep.Shed == 0 {
		t.Fatal("starved batcher shed nothing; overload path never exercised")
	}
	if rep.Batcher.SLOViolations != 0 {
		t.Errorf("overload caused %d SLO violations (max flush wait %v); shedding should have prevented them",
			rep.Batcher.SLOViolations, rep.Batcher.MaxFlushWait)
	}
	if rep.Batcher.Shed != rep.Shed {
		t.Errorf("batcher counted %d shed, fleet summaries %d", rep.Batcher.Shed, rep.Shed)
	}

	// Shed frames degrade to the edge answer and the client still gets
	// both commits. (That a shed frame keeps its labels is core's
	// TestGraphExecutor shed row: the fleet scores label sets as frames
	// finalize and does not keep them.)
	sawShed := false
	for _, cs := range cams {
		for _, o := range c.Outcomes(cs.ID) {
			if !o.Shed {
				continue
			}
			sawShed = true
			if o.FinalLatency < o.InitialLatency {
				t.Fatalf("shed frame %d of %s has final latency %v < initial %v", o.FrameIndex, cs.ID, o.FinalLatency, o.InitialLatency)
			}
		}
	}
	if !sawShed {
		t.Fatal("report counted shed frames but no outcome carries Shed")
	}
}

// TestConfigValidation exercises New's error paths.
func TestConfigValidation(t *testing.T) {
	clk := vclock.NewSim()
	cam := CameraSpec{Profile: video.ParkDog(), Frames: 1}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no clock", Config{Cameras: []CameraSpec{cam}, Edges: []EdgeSpec{{}}}},
		{"no cameras", Config{Clock: clk, Edges: []EdgeSpec{{}}}},
		{"no edges", Config{Clock: clk, Cameras: []CameraSpec{cam}}},
		{"bad thetas", Config{Clock: clk, Cameras: []CameraSpec{cam}, Edges: []EdgeSpec{{}}, ThetaL: 0.9, ThetaU: 0.2}},
		// Duplicate or path-unsafe edge IDs would alias or escape the
		// per-partition WAL files under a fault plan.
		{"duplicate edge IDs", Config{Clock: clk, Cameras: []CameraSpec{cam}, Edges: []EdgeSpec{{ID: "west"}, {ID: "west"}}}},
		{"edge ID with path separator", Config{Clock: clk, Cameras: []CameraSpec{cam}, Edges: []EdgeSpec{{ID: "../escape"}}}},
		// Negative knobs were silently ignored before; now they're errors.
		{"negative OpCost", Config{Clock: clk, Cameras: []CameraSpec{cam}, Edges: []EdgeSpec{{}}, OpCost: -time.Millisecond}},
		{"negative WorkloadKeys", Config{Clock: clk, Cameras: []CameraSpec{cam}, Edges: []EdgeSpec{{}}, WorkloadKeys: -1}},
		{"negative CheckpointEvery", Config{Clock: clk, Cameras: []CameraSpec{cam}, Edges: []EdgeSpec{{}}, CheckpointEvery: -time.Second}},
		// Duplicate camera IDs would alias report rows (edge IDs were
		// already checked; camera IDs were not).
		{"duplicate camera IDs", Config{Clock: clk, Cameras: []CameraSpec{{ID: "cam", Profile: video.ParkDog(), Frames: 1}, {ID: "cam", Profile: video.ParkDog(), Frames: 1}}, Edges: []EdgeSpec{{}}}},
		{"camera pinned to unknown edge", Config{Clock: clk, Cameras: []CameraSpec{{ID: "cam", Profile: video.ParkDog(), Frames: 1, Edge: "nowhere"}}, Edges: []EdgeSpec{{ID: "west"}}}},
		{"camera shard out of range", Config{Clock: clk, Cameras: []CameraSpec{{ID: "cam", Profile: video.ParkDog(), Frames: 1, Shard: 9}}, Edges: []EdgeSpec{{}}, ShardOwners: []int{0, 0}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
}
