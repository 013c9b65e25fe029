// Package smoothing implements the correction feedback loop the paper
// sketches in §2.1's footnote: "In a real application, the corrected
// information would also influence the small model — via retraining and
// heuristics such as smoothing — so that the error would not be incurred
// in the following frames."
//
// The Corrector is such a heuristic: it remembers, per object track, what
// the cloud model concluded (confirmed label, corrected label, or
// rejection as a false positive) and rewrites the edge model's future
// detections of the same track accordingly. Corrected tracks are re-issued
// with boosted confidence, so bandwidth thresholding stops re-validating
// objects the cloud has already settled — accuracy rises and bandwidth
// falls at the same thresholds. Track identity stands in for the output of
// a real-time tracker (SORT and friends) that any production edge pipeline
// already runs.
package smoothing

import (
	"sync"

	"croesus/internal/core"
	"croesus/internal/detect"
)

// memory is what the corrector knows about one track.
type memory struct {
	label      string // cloud-settled label ("" when only rejected)
	rejected   bool   // cloud found nothing there
	hits       int    // label reinforcements
	rejectHits int    // rejection reinforcements
	lastFrame  int
}

// Corrector is a per-track label smoother. It is safe for concurrent use.
type Corrector struct {
	// TTL is how many frames a memory survives without reinforcement.
	TTL int
	// BoostTo is the confidence assigned to detections rewritten from a
	// cloud-settled memory (high enough to clear the keep threshold).
	BoostTo float64
	// MinHits is how many consistent cloud verdicts a track needs before
	// a label rewrite is applied.
	MinHits int
	// RejectHits is how many rejections a track needs before it is
	// suppressed. Rejections are noisier than corrections (greedy box
	// matching occasionally leaves a real object unmatched), so the
	// default demands more evidence.
	RejectHits int

	mu    sync.Mutex
	track map[int]*memory
}

// New returns a Corrector with sensible defaults.
func New() *Corrector {
	return &Corrector{TTL: 40, BoostTo: 0.95, MinHits: 1, RejectHits: 2, track: make(map[int]*memory)}
}

// Learn ingests one validated frame's match results: for every edge label
// matched against the cloud labels, remember the verdict keyed by track.
func (c *Corrector) Learn(frameIdx int, matches []core.LabelMatch, edge []detect.Detection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range matches {
		if m.EdgeIdx < 0 || m.EdgeIdx >= len(edge) {
			continue
		}
		trackID := edge[m.EdgeIdx].TrackID
		if trackID == 0 {
			continue // false positives have no stable identity
		}
		mem, ok := c.track[trackID]
		if !ok {
			mem = &memory{}
			c.track[trackID] = mem
		}
		mem.lastFrame = frameIdx
		switch m.Case {
		case core.MatchCorrect, core.MatchCorrected:
			if mem.label == m.Cloud.Label {
				mem.hits++
			} else {
				mem.label = m.Cloud.Label
				mem.hits = 1
			}
			mem.rejected = false
		case core.MatchErroneous:
			if mem.rejected {
				mem.rejectHits++
			} else {
				mem.rejected = true
				mem.label = ""
				mem.hits = 0
				mem.rejectHits = 1
			}
		}
	}
}

// Apply rewrites a frame's edge detections using the accumulated memories:
// settled tracks get the cloud's label at boosted confidence, rejected
// tracks are suppressed. Unknown tracks pass through untouched.
func (c *Corrector) Apply(frameIdx int, dets []detect.Detection) []detect.Detection {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]detect.Detection, 0, len(dets))
	for _, d := range dets {
		mem, ok := c.track[d.TrackID]
		if !ok || d.TrackID == 0 || frameIdx-mem.lastFrame > c.TTL {
			out = append(out, d)
			continue
		}
		if mem.rejected && mem.rejectHits >= c.RejectHits {
			continue // the cloud repeatedly said there is nothing here
		}
		if mem.label != "" && mem.hits >= c.MinHits {
			d.Label = mem.label
			if d.Confidence < c.BoostTo {
				d.Confidence = c.BoostTo
			}
		}
		out = append(out, d)
	}
	return out
}

// Corrector implements core.Smoother.
var _ core.Smoother = (*Corrector)(nil)
