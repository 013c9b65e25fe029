package core

import (
	"testing"
	"time"

	"croesus/internal/detect"
	"croesus/internal/lock"
	"croesus/internal/netsim"
	"croesus/internal/store"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// buildPipeline wires a full Croesus stack over a fresh Sim clock.
func buildPipeline(t *testing.T, mode Mode, thetaL, thetaU float64) (*Pipeline, *vclock.Sim, *txn.Manager) {
	t.Helper()
	s := vclock.NewSim()
	st := store.New()
	locks := lock.NewManager(s)
	mgr := txn.NewManager(s, st, locks)
	p, err := New(Config{
		Clock:      s,
		Mode:       mode,
		EdgeModel:  detect.TinyYOLOSim(42),
		CloudModel: detect.YOLOv3Sim(detect.YOLO416, 42),
		ThetaL:     thetaL,
		ThetaU:     thetaU,
		Source:     NewWorkloadSource(1000, 7),
		CC:         &txn.MSIA{M: mgr},
		Mgr:        mgr,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p, s, mgr
}

func parkFrames(n int) []*video.Frame {
	return video.NewGenerator(video.ParkDog(), 11).Generate(n)
}

func TestConfigValidation(t *testing.T) {
	s := vclock.NewSim()
	if _, err := New(Config{}); err == nil {
		t.Error("missing clock accepted")
	}
	if _, err := New(Config{Clock: s, Mode: ModeCroesus, EdgeModel: detect.Oracle{}, CloudModel: detect.Oracle{}, ThetaL: 0.9, ThetaU: 0.2}); err == nil {
		t.Error("inverted thresholds accepted")
	}
	if _, err := New(Config{Clock: s, Mode: ModeEdgeOnly}); err == nil {
		t.Error("edge-only without edge model accepted")
	}
	if _, err := New(Config{Clock: s, Mode: ModeCloudOnly}); err == nil {
		t.Error("cloud-only without cloud model accepted")
	}
	mgr := txn.NewManager(s, store.New(), lock.NewManager(s))
	if _, err := New(Config{Clock: s, Mode: ModeEdgeOnly, EdgeModel: detect.Oracle{}, Mgr: mgr}); err == nil {
		t.Error("partial txn wiring accepted")
	}
}

func TestEdgeOnlyPipeline(t *testing.T) {
	p, _, mgr := buildPipeline(t, ModeEdgeOnly, 0, 0)
	frames := parkFrames(20)
	outs := p.ProcessVideo(frames)
	if len(outs) != 20 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for _, o := range outs {
		if o.SentToCloud {
			t.Fatal("edge-only sent a frame to the cloud")
		}
		if o.FinalLatency != o.InitialLatency {
			t.Fatal("edge-only final latency must equal initial")
		}
		// Edge-only latency ≈ transfer + ~200ms detection + txns. It must
		// stay well under the cloud detection scale.
		if o.InitialLatency > 700*time.Millisecond {
			t.Errorf("frame %d edge-only latency %v too high", o.FrameIndex, o.InitialLatency)
		}
		if o.InitialLatency < 100*time.Millisecond {
			t.Errorf("frame %d edge-only latency %v implausibly low", o.FrameIndex, o.InitialLatency)
		}
	}
	if st := mgr.Stats(); st.InitialCommits == 0 || st.InitialCommits != st.FinalCommits {
		t.Errorf("stats = %+v: every initial must finally commit", st)
	}
}

func TestCloudOnlyPipeline(t *testing.T) {
	p, _, _ := buildPipeline(t, ModeCloudOnly, 0, 0)
	frames := parkFrames(15)
	outs := p.ProcessVideo(frames)
	truth := TruthFromModel(p.Config().CloudModel, frames)
	sum := Summarize("park", ModeCloudOnly, "dog", outs, truth, 0.1)
	if sum.F1Final < 0.999 {
		t.Errorf("cloud-only F1 = %.3f, want 1.0 (cloud defines truth)", sum.F1Final)
	}
	if sum.BU != 1.0 {
		t.Errorf("cloud-only BU = %.2f, want 1.0", sum.BU)
	}
	// Cloud-only latency is dominated by ~1.12s detection plus transfers.
	if sum.MeanFinalLatency < time.Second {
		t.Errorf("cloud-only mean latency %v implausibly low", sum.MeanFinalLatency)
	}
}

func TestCroesusFullValidation(t *testing.T) {
	// θL=0, θU=1: every frame validates — Croesus converges to cloud
	// accuracy with initial commits at edge speed.
	p, _, _ := buildPipeline(t, ModeCroesus, 0.0, 1.0)
	frames := parkFrames(15)
	outs := p.ProcessVideo(frames)
	truth := TruthFromModel(p.Config().CloudModel, frames)
	sum := Summarize("park", ModeCroesus, "dog", outs, truth, 0.1)
	// Frames with zero edge detections cannot enter the validate interval,
	// so BU saturates slightly below 1.0.
	if sum.BU < 0.85 {
		t.Errorf("BU = %.2f, want ≈ 1.0 at (0,1) thresholds", sum.BU)
	}
	// Frames where the edge model detects nothing are never validated, so
	// the ceiling sits slightly below 1.0.
	if sum.F1Final < 0.94 {
		t.Errorf("F1Final = %.3f, want ≈ 1.0 under full validation", sum.F1Final)
	}
	if sum.MeanInitialLatency >= sum.MeanFinalLatency {
		t.Errorf("initial %v must beat final %v", sum.MeanInitialLatency, sum.MeanFinalLatency)
	}
	if sum.MeanInitialLatency > 800*time.Millisecond {
		t.Errorf("initial latency %v should stay near edge speed", sum.MeanInitialLatency)
	}
}

func TestCroesusZeroValidation(t *testing.T) {
	// θL=θU=0.5: no validate interval — BU must be 0 and final == initial
	// latency (no cloud leg).
	p, _, _ := buildPipeline(t, ModeCroesus, 0.5, 0.5)
	frames := parkFrames(15)
	outs := p.ProcessVideo(frames)
	for _, o := range outs {
		if o.SentToCloud {
			t.Fatal("frame sent to cloud despite empty validate interval")
		}
	}
	truth := TruthFromModel(p.Config().CloudModel, frames)
	sum := Summarize("park", ModeCroesus, "dog", outs, truth, 0.1)
	if sum.BU != 0 {
		t.Errorf("BU = %.2f, want 0", sum.BU)
	}
}

func TestCroesusDiscardsBelowThetaL(t *testing.T) {
	p, _, _ := buildPipeline(t, ModeCroesus, 0.45, 0.45)
	frames := parkFrames(25)
	outs := p.ProcessVideo(frames)
	discarded := 0
	for _, o := range outs {
		discarded += o.DiscardedDetections
		for _, v := range o.InitialVisible {
			if v.Confidence < 0.45 {
				t.Fatalf("rendered detection below θL: %.2f", v.Confidence)
			}
		}
	}
	if discarded == 0 {
		t.Error("no detections discarded — θL filter inert")
	}
}

func TestCroesusAccuracyBetweenBaselines(t *testing.T) {
	frames := parkFrames(40)

	run := func(mode Mode, tl, tu float64) Summary {
		p, _, _ := buildPipeline(t, mode, tl, tu)
		outs := p.ProcessVideo(frames)
		truth := TruthFromModel(p.Config().CloudModel, frames)
		return Summarize("park", mode, "dog", outs, truth, 0.1)
	}
	// The validate band (0.40, 0.62) covers the edge model's high-error
	// confidence region while keeping BU partial (see internal/metrics'
	// TestEdgeConfidenceCalibration).
	edge := run(ModeEdgeOnly, 0, 0)
	croesus := run(ModeCroesus, 0.40, 0.62)
	cloud := run(ModeCloudOnly, 0, 0)

	if !(edge.F1Final < croesus.F1Final && croesus.F1Final <= cloud.F1Final+1e-9) {
		t.Errorf("accuracy ordering violated: edge=%.3f croesus=%.3f cloud=%.3f",
			edge.F1Final, croesus.F1Final, cloud.F1Final)
	}
	if !(edge.MeanFinalLatency < croesus.MeanFinalLatency && croesus.MeanFinalLatency < cloud.MeanFinalLatency) {
		t.Errorf("latency ordering violated: edge=%v croesus=%v cloud=%v",
			edge.MeanFinalLatency, croesus.MeanFinalLatency, cloud.MeanFinalLatency)
	}
	if croesus.MeanInitialLatency > edge.MeanFinalLatency*3/2 {
		t.Errorf("croesus initial commit %v should be comparable to edge-only %v",
			croesus.MeanInitialLatency, edge.MeanFinalLatency)
	}
	if croesus.BU <= 0 || croesus.BU >= 1 {
		t.Errorf("BU = %.2f, want partial validation", croesus.BU)
	}
}

func TestValidatedFramesReachCloudTruth(t *testing.T) {
	p, _, _ := buildPipeline(t, ModeCroesus, 0.2, 0.9)
	frames := parkFrames(20)
	outs := p.ProcessVideo(frames)
	cloudTruth := TruthFromModel(p.Config().CloudModel, frames)
	for _, o := range outs {
		if !o.SentToCloud {
			continue
		}
		want := cloudTruth(o.FrameIndex)
		if len(o.FinalVisible) != len(want) {
			t.Fatalf("frame %d: final visible %d labels, cloud truth %d",
				o.FrameIndex, len(o.FinalVisible), len(want))
		}
	}
}

func TestApologiesIssuedForCorrections(t *testing.T) {
	p, _, _ := buildPipeline(t, ModeCroesus, 0.0, 1.0) // validate everything
	frames := parkFrames(30)
	outs := p.ProcessVideo(frames)
	var corrections, apologies int
	for _, o := range outs {
		corrections += o.Corrections
		apologies += len(o.Apologies)
	}
	if corrections == 0 {
		t.Fatal("tiny model made no errors across 30 frames — implausible")
	}
	if apologies == 0 {
		t.Fatal("corrections issued no apologies")
	}
}

func TestCloudTrafficAccounting(t *testing.T) {
	p, _, _ := buildPipeline(t, ModeCroesus, 0.0, 1.0)
	frames := parkFrames(10)
	p.ProcessVideo(frames)
	bytes, msgs := p.Config().EdgeCloud.Traffic()
	if msgs < 10 {
		t.Errorf("edge-cloud messages = %d, want ≥ 10", msgs)
	}
	if bytes < 10*100<<10 {
		t.Errorf("edge-cloud bytes = %d — frames not accounted", bytes)
	}
}

func TestCompressionReducesTraffic(t *testing.T) {
	run := func(pre netsim.Preprocessor) int64 {
		s := vclock.NewSim()
		st := store.New()
		mgr := txn.NewManager(s, st, lock.NewManager(s))
		p, err := New(Config{
			Clock: s, Mode: ModeCroesus,
			EdgeModel:  detect.TinyYOLOSim(42),
			CloudModel: detect.YOLOv3Sim(detect.YOLO416, 42),
			ThetaL:     0, ThetaU: 1,
			Preproc: pre,
			Source:  NewWorkloadSource(1000, 7),
			CC:      &txn.MSIA{M: mgr},
			Mgr:     mgr,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.ProcessVideo(parkFrames(10))
		b, _ := p.Config().EdgeCloud.Traffic()
		return b
	}
	raw := run(netsim.Identity{})
	comp := run(netsim.DefaultCompression())
	if comp >= raw {
		t.Errorf("compression did not reduce traffic: %d vs %d", comp, raw)
	}
}

// slowFinalPipeline builds a pipeline whose final sections burn real clock
// time, exposing where each mode measures its latencies.
func slowFinalPipeline(t *testing.T, mode Mode, finalCost time.Duration) *Pipeline {
	t.Helper()
	s := vclock.NewSim()
	st := store.New()
	mgr := txn.NewManager(s, st, lock.NewManager(s))
	source := TxnSourceFunc(func(frameIndex int, d detect.Detection) *txn.Txn {
		key := store.ItoaKey("k", frameIndex%16)
		return &txn.Txn{
			Name:      "slow-final",
			InitialRW: txn.RWSet{Writes: []string{key}},
			FinalRW:   txn.RWSet{Writes: []string{key}},
			Initial: func(c *txn.Ctx) error {
				c.Put(key, store.Int64Value(1))
				return nil
			},
			Final: func(c *txn.Ctx) error {
				s.Sleep(finalCost)
				c.Put(key, store.Int64Value(2))
				return nil
			},
		}
	})
	p, err := New(Config{
		Clock:      s,
		Mode:       mode,
		EdgeModel:  detect.TinyYOLOSim(42),
		CloudModel: detect.YOLOv3Sim(detect.YOLO416, 42),
		ThetaL:     0, ThetaU: 0,
		Source: source,
		CC:     &txn.MSIA{M: mgr},
		Mgr:    mgr,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

// TestEdgeOnlyFinalLatencyIncludesFinals is the regression test for the
// edge-only latency accounting: the final sections run after the initial
// commit and burn clock time, so FinalLatency must exceed InitialLatency —
// the old code copied InitialLatency into FinalLatency unconditionally.
func TestEdgeOnlyFinalLatencyIncludesFinals(t *testing.T) {
	const cost = 40 * time.Millisecond
	p := slowFinalPipeline(t, ModeEdgeOnly, cost)
	outs := p.ProcessVideo(parkFrames(12))
	sawTxn := false
	for _, o := range outs {
		if o.TxnsTriggered == 0 {
			continue
		}
		sawTxn = true
		if gap := o.FinalLatency - o.InitialLatency; gap < cost {
			t.Fatalf("frame %d: final latency %v only %v past initial %v — final sections not accounted",
				o.FrameIndex, o.FinalLatency, gap, o.InitialLatency)
		}
	}
	if !sawTxn {
		t.Fatal("no frame triggered a transaction; the test is vacuous")
	}
}

// TestCloudOnlyInitialLatencyExcludesFinals is the cloud-only counterpart:
// the initial commit happens before the final sections, so InitialLatency
// must be measured there, not after the final sections ran.
func TestCloudOnlyInitialLatencyExcludesFinals(t *testing.T) {
	const cost = 40 * time.Millisecond
	p := slowFinalPipeline(t, ModeCloudOnly, cost)
	outs := p.ProcessVideo(parkFrames(10))
	sawTxn := false
	for _, o := range outs {
		if o.TxnsTriggered == 0 {
			continue
		}
		sawTxn = true
		if gap := o.FinalLatency - o.InitialLatency; gap < cost {
			t.Fatalf("frame %d: initial latency %v absorbed the final sections (final %v, gap %v)",
				o.FrameIndex, o.InitialLatency, o.FinalLatency, gap)
		}
	}
	if !sawTxn {
		t.Fatal("no frame triggered a transaction; the test is vacuous")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	frames := parkFrames(12)
	run := func() Summary {
		p, _, _ := buildPipeline(t, ModeCroesus, 0.3, 0.7)
		outs := p.ProcessVideo(frames)
		truth := TruthFromModel(p.Config().CloudModel, frames)
		return Summarize("park", ModeCroesus, "dog", outs, truth, 0.1)
	}
	a, b := run(), run()
	if a.BU != b.BU || a.F1Final != b.F1Final || a.MeanFinalLatency != b.MeanFinalLatency {
		t.Errorf("non-deterministic summaries:\n%+v\n%+v", a, b)
	}
}
