package smoothing

import (
	"testing"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/node"
	"croesus/internal/twopc"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

func det(track int, label string, conf float64) detect.Detection {
	return detect.Detection{
		TrackID: track, Label: label, Confidence: conf,
		Box: video.Rect{X: 0.1 * float64(track), Y: 0.1, W: 0.1, H: 0.1},
	}
}

func TestCorrectedLabelAppliedToLaterFrames(t *testing.T) {
	c := New()
	edge := []detect.Detection{det(7, "cat", 0.55)}
	matches := []core.LabelMatch{{
		Case: core.MatchCorrected, EdgeIdx: 0,
		Cloud: det(7, "dog", 0.95),
	}}
	c.Learn(1, matches, edge)

	out := c.Apply(2, []detect.Detection{det(7, "cat", 0.52)})
	if len(out) != 1 {
		t.Fatalf("out = %d detections", len(out))
	}
	if out[0].Label != "dog" {
		t.Errorf("label = %q, want cloud-corrected dog", out[0].Label)
	}
	if out[0].Confidence < 0.9 {
		t.Errorf("confidence = %.2f, want boosted above the keep threshold", out[0].Confidence)
	}
}

func TestRejectedTrackSuppressedAfterTwoStrikes(t *testing.T) {
	c := New()
	edge := []detect.Detection{det(3, "dog", 0.5)}
	reject := []core.LabelMatch{{Case: core.MatchErroneous, EdgeIdx: 0}}
	c.Learn(1, reject, edge)
	// One rejection is not enough: greedy matching sometimes leaves a
	// real object unmatched, so a single strike must pass through.
	if out := c.Apply(2, []detect.Detection{det(3, "dog", 0.5)}); len(out) != 1 {
		t.Fatal("track suppressed after a single rejection")
	}
	c.Learn(2, reject, edge)
	out := c.Apply(3, []detect.Detection{det(3, "dog", 0.5), det(4, "dog", 0.6)})
	if len(out) != 1 || out[0].TrackID != 4 {
		t.Fatalf("suppression failed after two strikes: %+v", out)
	}
}

func TestUnknownAndFalsePositiveTracksPassThrough(t *testing.T) {
	c := New()
	in := []detect.Detection{det(9, "dog", 0.5), det(0, "clutter", 0.2)}
	out := c.Apply(1, in)
	if len(out) != 2 {
		t.Fatalf("out = %d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("detection %d mutated without memory", i)
		}
	}
}

func TestMemoryExpiresAfterTTL(t *testing.T) {
	c := New()
	c.TTL = 5
	edge := []detect.Detection{det(2, "cat", 0.5)}
	c.Learn(1, []core.LabelMatch{{Case: core.MatchCorrected, EdgeIdx: 0, Cloud: det(2, "dog", 0.9)}}, edge)
	if got := c.Apply(3, []detect.Detection{det(2, "cat", 0.5)}); got[0].Label != "dog" {
		t.Fatal("memory inactive before TTL")
	}
	if got := c.Apply(20, []detect.Detection{det(2, "cat", 0.5)}); got[0].Label != "cat" {
		t.Fatal("memory survived past TTL")
	}
}

func TestMinHitsGate(t *testing.T) {
	c := New()
	c.MinHits = 2
	edge := []detect.Detection{det(5, "cat", 0.5)}
	m := []core.LabelMatch{{Case: core.MatchCorrected, EdgeIdx: 0, Cloud: det(5, "dog", 0.9)}}
	c.Learn(1, m, edge)
	if got := c.Apply(2, []detect.Detection{det(5, "cat", 0.5)}); got[0].Label != "cat" {
		t.Fatal("memory applied before MinHits")
	}
	c.Learn(2, m, edge)
	if got := c.Apply(3, []detect.Detection{det(5, "cat", 0.5)}); got[0].Label != "dog" {
		t.Fatal("memory not applied after MinHits")
	}
}

func TestVerdictFlipResetsVotes(t *testing.T) {
	c := New()
	c.MinHits = 2
	edge := []detect.Detection{det(5, "cat", 0.5)}
	c.Learn(1, []core.LabelMatch{{Case: core.MatchCorrected, EdgeIdx: 0, Cloud: det(5, "dog", 0.9)}}, edge)
	// The cloud changes its mind: one vote for sheep must not apply yet.
	c.Learn(2, []core.LabelMatch{{Case: core.MatchCorrected, EdgeIdx: 0, Cloud: det(5, "sheep", 0.9)}}, edge)
	if got := c.Apply(3, []detect.Detection{det(5, "cat", 0.5)}); got[0].Label != "cat" {
		t.Fatalf("flipped memory applied with a single vote: %q", got[0].Label)
	}
}

// TestSmoothingImprovesPipeline compares the corrector fairly: smoothing
// converts cloud validations into durable local knowledge, so at the SAME
// thresholds it must cut bandwidth sharply, and against a baseline tuned
// to the same (reduced) bandwidth it must win on accuracy. (At identical
// thresholds smoothing trades some accuracy for bandwidth — every skipped
// validation forgoes a frame-perfect correction — which is the economics
// the paper's footnote describes.)
func TestSmoothingImprovesPipeline(t *testing.T) {
	prof := video.ParkDog()
	frames := video.NewGenerator(prof, 11).Generate(100)
	runWith := func(sm core.Smoother, thetaL, thetaU float64) core.Summary {
		clk := vclock.NewSim()
		asm := node.New(clk, twopc.MSIA)
		cloud := detect.YOLOv3Sim(detect.YOLO416, 42)
		p, err := core.New(core.Config{
			Clock:      clk,
			EdgeModel:  detect.TinyYOLOSim(42),
			CloudModel: cloud,
			ThetaL:     thetaL, ThetaU: thetaU,
			Source:   core.NewWorkloadSource(500, 7),
			CC:       asm.CC,
			Mgr:      asm.Mgr,
			Smoother: sm,
		})
		if err != nil {
			t.Fatal(err)
		}
		outs := p.ProcessVideo(frames)
		truth := core.TruthFromModel(cloud, frames)
		return core.Summarize(prof.Name, core.ModeCroesus, prof.QueryClass, outs, truth, 0.10)
	}

	const thetaL, thetaU = 0.40, 0.62
	base := runWith(nil, thetaL, thetaU)
	smoothed := runWith(New(), thetaL, thetaU)
	if smoothed.BU >= base.BU-0.05 {
		t.Errorf("smoothing did not reduce bandwidth: %.3f vs %.3f", smoothed.BU, base.BU)
	}

	// Baseline at matched bandwidth: narrow the validate interval until
	// the plain pipeline sends about as many frames as the smoothed one.
	matched := base
	bestGap := 2.0
	for _, pair := range [][2]float64{{0.40, 0.45}, {0.45, 0.50}, {0.40, 0.50}, {0.50, 0.55}, {0.45, 0.55}, {0.40, 0.42}} {
		s := runWith(nil, pair[0], pair[1])
		if gap := abs(s.BU - smoothed.BU); gap < bestGap {
			bestGap, matched = gap, s
		}
	}
	if bestGap > 0.2 {
		t.Fatalf("no baseline pair matched smoothed BU %.3f (best gap %.3f)", smoothed.BU, bestGap)
	}
	if smoothed.F1Final <= matched.F1Final {
		t.Errorf("at matched BU (≈%.2f vs %.2f), smoothing F %.3f not above baseline %.3f",
			smoothed.BU, matched.BU, smoothed.F1Final, matched.F1Final)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
