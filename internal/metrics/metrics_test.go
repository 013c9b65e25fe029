package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"croesus/internal/detect"
	"croesus/internal/video"
)

func det(class string, x, y, w, h float64) detect.Detection {
	return detect.Detection{Label: class, Confidence: 0.9, Box: video.Rect{X: x, Y: y, W: w, H: h}}
}

func TestCountsMath(t *testing.T) {
	c := Counts{TP: 8, FP: 2, FN: 2}
	if p := c.Precision(); math.Abs(p-0.8) > 1e-12 {
		t.Errorf("Precision = %g, want 0.8", p)
	}
	if r := c.Recall(); math.Abs(r-0.8) > 1e-12 {
		t.Errorf("Recall = %g, want 0.8", r)
	}
	if f := c.F1(); math.Abs(f-0.8) > 1e-12 {
		t.Errorf("F1 = %g, want 0.8", f)
	}
}

func TestCountsEmpty(t *testing.T) {
	var c Counts
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Error("empty counts must score perfect precision/recall")
	}
	if c.F1() != 1 {
		t.Errorf("empty F1 = %g, want 1", c.F1())
	}
	c = Counts{FP: 3}
	if c.Precision() != 0 {
		t.Errorf("all-FP precision = %g, want 0", c.Precision())
	}
	c = Counts{FN: 3}
	if c.F1() != 0 {
		t.Errorf("all-FN F1 = %g, want 0", c.F1())
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{TP: 1, FP: 2, FN: 3}
	a.Add(Counts{TP: 10, FP: 20, FN: 30})
	if a != (Counts{TP: 11, FP: 22, FN: 33}) {
		t.Errorf("Add = %+v", a)
	}
}

func TestMatchBoxesExact(t *testing.T) {
	preds := []detect.Detection{det("a", 0, 0, 0.2, 0.2), det("b", 0.5, 0.5, 0.2, 0.2)}
	refs := []detect.Detection{det("a", 0, 0, 0.2, 0.2), det("b", 0.5, 0.5, 0.2, 0.2)}
	m := MatchBoxes(preds, refs, 0.1)
	if len(m.Matches) != 2 || len(m.UnmatchedPred) != 0 || len(m.UnmatchedRef) != 0 {
		t.Fatalf("unexpected match result %+v", m)
	}
}

func TestMatchBoxesGreedyBestOverlap(t *testing.T) {
	// One prediction overlaps two references; it must take the larger one.
	preds := []detect.Detection{det("a", 0, 0, 0.2, 0.2)}
	refs := []detect.Detection{
		det("a", 0.1, 0.1, 0.2, 0.2),   // small overlap
		det("a", 0.02, 0.02, 0.2, 0.2), // large overlap
	}
	m := MatchBoxes(preds, refs, 0.05)
	if len(m.Matches) != 1 || m.Matches[0].Ref != 1 {
		t.Fatalf("greedy matching picked wrong reference: %+v", m)
	}
	if len(m.UnmatchedRef) != 1 || m.UnmatchedRef[0] != 0 {
		t.Fatalf("unmatched refs wrong: %+v", m)
	}
}

func TestMatchBoxesThreshold(t *testing.T) {
	preds := []detect.Detection{det("a", 0, 0, 0.2, 0.2)}
	refs := []detect.Detection{det("a", 0.19, 0.19, 0.2, 0.2)} // tiny sliver
	m := MatchBoxes(preds, refs, 0.1)
	if len(m.Matches) != 0 {
		t.Fatal("sliver overlap must not match at minIoU=0.1")
	}
}

func TestMatchBoxesOneToOne(t *testing.T) {
	// Two predictions on the same reference: only one can match.
	preds := []detect.Detection{det("a", 0, 0, 0.2, 0.2), det("a", 0.01, 0.01, 0.2, 0.2)}
	refs := []detect.Detection{det("a", 0, 0, 0.2, 0.2)}
	m := MatchBoxes(preds, refs, 0.1)
	if len(m.Matches) != 1 || len(m.UnmatchedPred) != 1 {
		t.Fatalf("one-to-one violated: %+v", m)
	}
}

func TestScoreClass(t *testing.T) {
	preds := []detect.Detection{
		det("person", 0, 0, 0.2, 0.2),     // TP
		det("person", 0.7, 0.7, 0.1, 0.1), // FP (no ref there)
		det("car", 0.4, 0.4, 0.2, 0.2),    // other class, ignored
	}
	refs := []detect.Detection{
		det("person", 0, 0, 0.2, 0.2),
		det("person", 0.3, 0.0, 0.1, 0.1), // FN
		det("car", 0.4, 0.4, 0.2, 0.2),
	}
	c := ScoreClass(preds, refs, "person", 0.1)
	if c != (Counts{TP: 1, FP: 1, FN: 1}) {
		t.Errorf("ScoreClass = %+v, want TP=1 FP=1 FN=1", c)
	}
}

// Property: matching never double-uses a prediction or a reference, and
// matched+unmatched partitions both sides exactly.
func TestMatchBoxesPartitionProperty(t *testing.T) {
	f := func(rawP, rawR []uint8) bool {
		preds := boxesFromBytes(rawP)
		refs := boxesFromBytes(rawR)
		m := MatchBoxes(preds, refs, 0.1)
		seenP := map[int]bool{}
		seenR := map[int]bool{}
		for _, match := range m.Matches {
			if seenP[match.Pred] || seenR[match.Ref] {
				return false
			}
			seenP[match.Pred] = true
			seenR[match.Ref] = true
			if match.IoU < 0.1 {
				return false
			}
		}
		for _, i := range m.UnmatchedPred {
			if seenP[i] {
				return false
			}
			seenP[i] = true
		}
		for _, j := range m.UnmatchedRef {
			if seenR[j] {
				return false
			}
			seenR[j] = true
		}
		return len(seenP) == len(preds) && len(seenR) == len(refs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func boxesFromBytes(raw []uint8) []detect.Detection {
	var out []detect.Detection
	for i := 0; i+1 < len(raw) && len(out) < 12; i += 2 {
		x := float64(raw[i]) / 300
		y := float64(raw[i+1]) / 300
		out = append(out, det("a", x, y, 0.15, 0.15))
	}
	return out
}
