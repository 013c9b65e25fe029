package metrics

import (
	"testing"

	"croesus/internal/detect"
	"croesus/internal/video"
)

// TestEdgeConfidenceCalibration pins the premise behind the θL/θU
// thresholds (§3.4): the simulated edge model's confidence predicts
// whether the cloud model disagrees. On every video, a low-confidence edge
// detection (< 0.4) is almost always wrong against the cloud, a
// high-confidence one (≥ 0.7) almost always right, and the band between
// is where validation pays — neither.
func TestEdgeConfidenceCalibration(t *testing.T) {
	const lo, hi = 0.4, 0.7
	for _, prof := range video.AllProfiles() {
		frames := video.NewGenerator(prof, 11).Generate(200)
		edge := detect.TinyYOLOSim(42)
		cloud := detect.YOLOv3Sim(detect.YOLO416, 42)
		var dets, wrong [3]int // below lo, [lo, hi), at or above hi
		for _, f := range frames {
			e := edge.Detect(f).Detections
			c := cloud.Detect(f).Detections
			matched := map[int]string{}
			for _, pair := range MatchBoxes(e, c, 0.1).Matches {
				matched[pair.Pred] = c[pair.Ref].Label
			}
			for i, d := range e {
				band := 1
				switch {
				case d.Confidence < lo:
					band = 0
				case d.Confidence >= hi:
					band = 2
				}
				dets[band]++
				if lbl, ok := matched[i]; !ok || lbl != d.Label {
					wrong[band]++
				}
			}
		}
		var share [3]float64
		for b := range share {
			if dets[b] == 0 {
				t.Fatalf("%s: no edge detections in band %d", prof.Name, b)
			}
			share[b] = float64(wrong[b]) / float64(dets[b])
		}
		t.Logf("%s: wrong share %.2f below %.1f, %.2f between, %.2f at or above %.1f", prof.Name, share[0], lo, share[1], share[2], hi)
		if share[0] < 0.9 {
			t.Errorf("%s: %.0f%% of edge labels below %.1f are wrong, want ≥ 90%%", prof.Name, 100*share[0], lo)
		}
		if share[2] > 0.1 {
			t.Errorf("%s: %.0f%% of edge labels at or above %.1f are wrong, want ≤ 10%%", prof.Name, 100*share[2], hi)
		}
		if share[1] <= 0.1 || share[1] >= 0.9 {
			t.Errorf("%s: %.0f%% of edge labels in [%.1f, %.1f) are wrong, want strictly between 10%% and 90%%",
				prof.Name, 100*share[1], lo, hi)
		}
	}
}
