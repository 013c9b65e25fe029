package core

import (
	"croesus/internal/detect"
	"croesus/internal/metrics"
)

// MatchCase classifies how an edge label relates to the cloud labels when
// the final stage runs — the three cases of §3.3 plus the two pipeline
// outcomes that bypass matching.
type MatchCase int

// Match cases.
const (
	// MatchCorrect: an overlapping cloud label exists with the same name
	// (case 2). The final section is called with the same label.
	MatchCorrect MatchCase = iota
	// MatchCorrected: an overlapping cloud label exists with a different
	// name (case 3). The final section is called with the cloud label.
	MatchCorrected
	// MatchErroneous: no overlapping cloud label (case 1). The final
	// section is called with an empty label.
	MatchErroneous
	// MatchNew: a cloud label with no overlapping edge label; the edge
	// missed it, so an initial+final pair is triggered for it.
	MatchNew
	// MatchAssumed: the frame was not validated at the cloud (bandwidth
	// thresholding kept it local); the final section runs with the edge
	// label assumed correct.
	MatchAssumed
)

func (c MatchCase) String() string {
	switch c {
	case MatchCorrect:
		return "correct"
	case MatchCorrected:
		return "corrected"
	case MatchErroneous:
		return "erroneous"
	case MatchNew:
		return "new-from-cloud"
	case MatchAssumed:
		return "assumed-correct"
	default:
		return "unknown"
	}
}

// LabelMatch pairs one edge label with its cloud correction.
type LabelMatch struct {
	Case MatchCase
	// EdgeIdx indexes the edge detections (-1 for MatchNew).
	EdgeIdx int
	// Cloud is the corrected label. Zero value for MatchErroneous and
	// MatchAssumed.
	Cloud detect.Detection
}

// MatchLabels classifies every edge label against the cloud labels using
// bounding-box overlap of at least minIoU, returning one entry per edge
// label followed by one MatchNew entry per unmatched cloud label. When
// multiple cloud labels overlap one edge label, the largest overlap wins
// (the metrics matcher is greedy by IoU).
func MatchLabels(edge, cloud []detect.Detection, minIoU float64) []LabelMatch {
	m := metrics.MatchBoxes(edge, cloud, minIoU)
	out := make([]LabelMatch, len(edge), len(edge)+len(m.UnmatchedRef))
	for i := range out {
		out[i] = LabelMatch{Case: MatchErroneous, EdgeIdx: i}
	}
	for _, pair := range m.Matches {
		c := cloud[pair.Ref]
		mc := MatchCorrect
		if edge[pair.Pred].Label != c.Label {
			mc = MatchCorrected
		}
		out[pair.Pred] = LabelMatch{Case: mc, EdgeIdx: pair.Pred, Cloud: c}
	}
	for _, j := range m.UnmatchedRef {
		out = append(out, LabelMatch{Case: MatchNew, EdgeIdx: -1, Cloud: cloud[j]})
	}
	return out
}

// InitialInput is the input to an initial section: the triggering label and
// the frame's full edge label set.
type InitialInput struct {
	FrameIndex int
	Trigger    detect.Detection
	Labels     []detect.Detection
}

// FinalInput is the input to a final section: the original edge trigger
// plus the corrected cloud label and how they relate.
type FinalInput struct {
	FrameIndex int
	Case       MatchCase
	Edge       detect.Detection // zero for MatchNew
	Cloud      detect.Detection // zero for MatchErroneous / MatchAssumed
}

// Corrected reports whether the final stage changed the client-visible
// outcome for this transaction.
func (f FinalInput) Corrected() bool {
	return f.Case == MatchCorrected || f.Case == MatchErroneous || f.Case == MatchNew
}
