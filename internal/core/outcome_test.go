package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"croesus/internal/detect"
	"croesus/internal/video"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize("v", ModeCroesus, "dog", nil, func(int) []detect.Detection { return nil }, 0.1)
	if s.Frames != 0 || s.BU != 0 || s.MeanFinalLatency != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	// No predictions and no truth: perfect score by convention.
	if s.F1Final != 1 {
		t.Errorf("empty F1 = %v", s.F1Final)
	}
}

func TestSummarizeAggregates(t *testing.T) {
	d := detect.Detection{Label: "dog", Confidence: 0.9, Box: video.Rect{X: 0.1, Y: 0.1, W: 0.2, H: 0.2}}
	miss := detect.Detection{Label: "dog", Confidence: 0.9, Box: video.Rect{X: 0.7, Y: 0.7, W: 0.2, H: 0.2}}
	outs := []FrameOutcome{
		{
			FrameIndex:     0,
			InitialVisible: []detect.Detection{d},
			FinalVisible:   []detect.Detection{d},
			SentToCloud:    true,
			InitialLatency: 100 * time.Millisecond,
			FinalLatency:   300 * time.Millisecond,
			Breakdown:      Breakdown{EdgeDetect: 80 * time.Millisecond},
			TxnsTriggered:  2,
			Corrections:    1,
		},
		{
			FrameIndex:     1,
			InitialVisible: []detect.Detection{miss}, // wrong place: FP + FN
			FinalVisible:   []detect.Detection{d},    // corrected
			InitialLatency: 100 * time.Millisecond,
			FinalLatency:   100 * time.Millisecond,
			Breakdown:      Breakdown{EdgeDetect: 120 * time.Millisecond},
			TxnsTriggered:  1,
		},
	}
	truth := func(int) []detect.Detection { return []detect.Detection{d} }
	s := Summarize("v", ModeCroesus, "dog", outs, truth, 0.1)
	if s.Frames != 2 {
		t.Fatalf("frames = %d", s.Frames)
	}
	if s.BU != 0.5 {
		t.Errorf("BU = %v, want 0.5", s.BU)
	}
	if s.MeanInitialLatency != 100*time.Millisecond {
		t.Errorf("mean initial = %v", s.MeanInitialLatency)
	}
	if s.MeanFinalLatency != 200*time.Millisecond {
		t.Errorf("mean final = %v", s.MeanFinalLatency)
	}
	if s.MeanBreakdown.EdgeDetect != 100*time.Millisecond {
		t.Errorf("mean edge detect = %v", s.MeanBreakdown.EdgeDetect)
	}
	// Initial: frame0 TP, frame1 FP+FN → P=1/2, R=1/2, F=1/2.
	if s.F1Initial != 0.5 {
		t.Errorf("F1Initial = %v, want 0.5", s.F1Initial)
	}
	if s.F1Final != 1 {
		t.Errorf("F1Final = %v, want 1 (both frames corrected)", s.F1Final)
	}
	if s.TxnsTriggered != 3 || s.Corrections != 1 {
		t.Errorf("txns=%d corrections=%d", s.TxnsTriggered, s.Corrections)
	}
}

// TestTallyIgnoresArrivalOrder: a fleet scores frames in the order they
// finalize, not the order they were captured. Folding a shuffled run through
// Tally must give exactly Summarize's result over the captured order — F1
// and the means alike.
func TestTallyIgnoresArrivalOrder(t *testing.T) {
	p, _, _ := buildPipeline(t, ModeCroesus, 0.4, 0.62)
	frames := parkFrames(40)
	outs := p.ProcessVideo(frames)
	truth := TruthFromModel(p.Config().CloudModel, frames)
	want := Summarize("park", ModeCroesus, "dog", outs, truth, 0.1)
	if want.Validated == 0 || want.Corrections == 0 {
		t.Fatalf("run too plain to tell orders apart: %+v", want)
	}
	for seed := int64(1); seed <= 5; seed++ {
		shuffled := append([]FrameOutcome(nil), outs...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		tally := Tally{QueryClass: "dog", OverlapMin: 0.1}
		for i := range shuffled {
			tally.Add(&shuffled[i], truth(shuffled[i].FrameIndex))
		}
		if got := tally.Summary("park", ModeCroesus); !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffle %d: Tally gave\n  %+v\nSummarize gave\n  %+v", seed, got, want)
		}
	}
}

func TestTruthFromModelIndexesByFrame(t *testing.T) {
	frames := video.NewGenerator(video.ParkDog(), 11).Generate(5)
	truth := TruthFromModel(detect.Oracle{}, frames)
	for _, f := range frames {
		if got := truth(f.Index); len(got) != len(f.Objects) {
			t.Errorf("frame %d: truth %d, objects %d", f.Index, len(got), len(f.Objects))
		}
	}
	if got := truth(999); got != nil {
		t.Errorf("unknown frame returned %v", got)
	}
}

func TestBreakdownDivByZero(t *testing.T) {
	b := Breakdown{EdgeDetect: time.Second}
	b.div(0) // must not panic
	if b.EdgeDetect != time.Second {
		t.Error("div(0) mutated the breakdown")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeCroesus.String() != "croesus" || ModeEdgeOnly.String() != "edge-only" ||
		ModeCloudOnly.String() != "cloud-only" || Mode(9).String() != "unknown" {
		t.Error("mode strings wrong")
	}
}
