package core

import (
	"testing"

	"croesus/internal/detect"
	"croesus/internal/lock"
	"croesus/internal/netsim"
	"croesus/internal/store"
	"croesus/internal/txn"
	"croesus/internal/vclock"
)

// lossyValidator loses every frame whose index is a multiple of every —
// the ValidationLost a partitioned uplink or a dropped cloud connection
// returns — and sends the rest to the cloud model.
type lossyValidator struct {
	every int
	cloud Validator
}

func (v lossyValidator) Validate(req ValidationRequest) ValidationResult {
	if req.Frame.Index%v.every == 0 {
		return ValidationResult{Status: ValidationLost}
	}
	return v.cloud.Validate(req)
}

func buildLossy(t *testing.T, every int) (*Pipeline, *txn.Manager) {
	t.Helper()
	s := vclock.NewSim()
	mgr := txn.NewManager(s, store.New(), lock.NewManager(s))
	cloud := &DirectValidator{
		Clock: s,
		Link:  netsim.EdgeCloudCrossCountry(),
		Model: detect.YOLOv3Sim(detect.YOLO416, 42),
		Slots: vclock.NewSemaphore(s, 1),
	}
	p, err := New(Config{
		Clock:     s,
		EdgeModel: detect.TinyYOLOSim(42),
		// θU = 1 validates everything: maximum cloud exposure.
		Graph:  ModeCroesus.Graph(1.0, lossyValidator{every: every, cloud: cloud}),
		Source: NewWorkloadSource(500, 7),
		CC:     &txn.MSIA{M: mgr},
		Mgr:    mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, mgr
}

func TestCloudLossFallsBackLocally(t *testing.T) {
	p, mgr := buildLossy(t, 2)
	outs := p.ProcessVideo(parkFrames(30))

	lost, delivered := 0, 0
	for _, o := range outs {
		if !o.SentToCloud {
			continue
		}
		if o.CloudLost {
			lost++
			// A lost frame finalizes with the edge labels and never
			// reaches the cloud model.
			if len(o.FinalVisible) != len(o.InitialVisible) {
				t.Errorf("frame %d: lost frame changed its label set", o.FrameIndex)
			}
			if o.Breakdown.CloudDetect != 0 {
				t.Errorf("frame %d: lost frame has cloud detect time", o.FrameIndex)
			}
		} else {
			delivered++
		}
	}
	if lost == 0 || delivered == 0 {
		t.Fatalf("loss inert: lost=%d delivered=%d", lost, delivered)
	}

	// Liveness: every initially-committed transaction resolved.
	st := mgr.Stats()
	if unresolved := st.InitialCommits - st.FinalCommits; unresolved < 0 || unresolved > st.Retractions {
		t.Errorf("transactions left unresolved: %+v", st)
	}
}

func TestCloudLossDeterministic(t *testing.T) {
	run := func() []FrameOutcome {
		p, _ := buildLossy(t, 3)
		return p.ProcessVideo(parkFrames(20))
	}
	a, b := run(), run()
	for i := range a {
		if a[i].CloudLost != b[i].CloudLost || a[i].FinalLatency != b[i].FinalLatency {
			t.Fatalf("frame %d differs across identical runs", i)
		}
	}
}

// The built-in graph's DirectValidator loses nothing: with every frame
// validated, none is marked lost.
func TestZeroLossIsNoop(t *testing.T) {
	p, _, _ := buildPipeline(t, ModeCroesus, 0, 1)
	for _, o := range p.ProcessVideo(parkFrames(10)) {
		if o.CloudLost {
			t.Fatalf("frame %d lost by a validator that loses nothing", o.FrameIndex)
		}
	}
}

func TestFullLossStillAnswersEveryFrame(t *testing.T) {
	p, _ := buildLossy(t, 1)
	outs := p.ProcessVideo(parkFrames(10))
	for _, o := range outs {
		if o.SentToCloud && !o.CloudLost {
			t.Fatal("frame claims cloud delivery under total loss")
		}
		if o.FinalLatency == 0 {
			t.Fatalf("frame %d never finalized", o.FrameIndex)
		}
	}
}
