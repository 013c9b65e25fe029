// Package metrics implements the evaluation machinery of the paper:
// bounding-box matching between detection sets, and precision, recall and
// F-score.
package metrics

import (
	"fmt"
	"slices"

	"croesus/internal/detect"
)

// Counts accumulates confusion counts for detection evaluation.
type Counts struct {
	TP, FP, FN int
}

// Add merges another count set.
func (c *Counts) Add(o Counts) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
}

// Precision returns TP / (TP + FP), or 1 when nothing was predicted.
func (c Counts) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 1 when there was nothing to find.
func (c Counts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall (the paper's
// F-score: 2pr/(p+r)).
func (c Counts) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (c Counts) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d P=%.3f R=%.3f F1=%.3f", c.TP, c.FP, c.FN, c.Precision(), c.Recall(), c.F1())
}

// Match pairs one predicted detection with one reference detection.
type Match struct {
	Pred, Ref int     // indices into the input slices
	IoU       float64 // overlap of the pair
}

// MatchResult is the outcome of matching predictions against a reference.
type MatchResult struct {
	Matches       []Match
	UnmatchedPred []int
	UnmatchedRef  []int
}

// MatchBoxes greedily pairs predictions to reference detections by
// descending IoU, requiring overlap of at least minIoU (the paper uses 10%).
// Class labels are NOT considered: the caller decides whether a matched pair
// with differing labels is a correction (pipeline) or an error (scoring).
func MatchBoxes(preds, refs []detect.Detection, minIoU float64) MatchResult {
	type cand struct {
		p, r int
		iou  float64
	}
	// The matcher runs per frame in reports and in the pipeline's final
	// stage, over a handful of detections — keep the candidate list and
	// the used-sets off the heap in that regime (stack scratch + bitmask)
	// and size the result slices exactly.
	var candsBuf [24]cand
	cands := candsBuf[:0]
	for i, p := range preds {
		for j, r := range refs {
			if iou := p.Box.IoU(r.Box); iou >= minIoU {
				cands = append(cands, cand{i, j, iou})
			}
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if a.iou != b.iou {
			if a.iou > b.iou {
				return -1
			}
			return 1
		}
		if a.p != b.p {
			return a.p - b.p
		}
		return a.r - b.r
	})
	big := len(preds) > 64 || len(refs) > 64
	var maskP, maskR uint64
	var usedP, usedR []bool
	if big {
		usedP = make([]bool, len(preds))
		usedR = make([]bool, len(refs))
	}
	used := func(i, j int) bool {
		if big {
			return usedP[i] || usedR[j]
		}
		return maskP&(1<<uint(i)) != 0 || maskR&(1<<uint(j)) != 0
	}
	markUsed := func(i, j int) {
		if big {
			usedP[i], usedR[j] = true, true
		} else {
			maskP |= 1 << uint(i)
			maskR |= 1 << uint(j)
		}
	}
	var res MatchResult
	matched := 0
	for _, c := range cands {
		if used(c.p, c.r) {
			continue
		}
		markUsed(c.p, c.r)
		if res.Matches == nil {
			n := len(preds)
			if len(refs) < n {
				n = len(refs)
			}
			res.Matches = make([]Match, 0, n)
		}
		res.Matches = append(res.Matches, Match{Pred: c.p, Ref: c.r, IoU: c.iou})
		matched++
	}
	predUsed := func(i int) bool {
		if big {
			return usedP[i]
		}
		return maskP&(1<<uint(i)) != 0
	}
	refUsed := func(j int) bool {
		if big {
			return usedR[j]
		}
		return maskR&(1<<uint(j)) != 0
	}
	if n := len(preds) - matched; n > 0 {
		res.UnmatchedPred = make([]int, 0, n)
		for i := range preds {
			if !predUsed(i) {
				res.UnmatchedPred = append(res.UnmatchedPred, i)
			}
		}
	}
	if n := len(refs) - matched; n > 0 {
		res.UnmatchedRef = make([]int, 0, n)
		for j := range refs {
			if !refUsed(j) {
				res.UnmatchedRef = append(res.UnmatchedRef, j)
			}
		}
	}
	return res
}

// ScoreClass evaluates predictions against a reference for one query class,
// per the paper's evaluation: a prediction is correct when it overlaps a
// same-class reference detection by at least minIoU.
func ScoreClass(preds, refs []detect.Detection, class string, minIoU float64) Counts {
	// The filtered views only feed MatchBoxes (which retains nothing), so
	// small inputs filter into stack scratch instead of fresh slices.
	var pBuf, rBuf [32]detect.Detection
	p := filterClassInto(pBuf[:0], preds, class)
	r := filterClassInto(rBuf[:0], refs, class)
	m := MatchBoxes(p, r, minIoU)
	return Counts{
		TP: len(m.Matches),
		FP: len(m.UnmatchedPred),
		FN: len(m.UnmatchedRef),
	}
}

func filterClassInto(out, dets []detect.Detection, class string) []detect.Detection {
	for _, d := range dets {
		if d.Label == class {
			out = append(out, d)
		}
	}
	return out
}
