// Package detect provides the object-detection models used by Croesus.
//
// The paper runs Tiny YOLOv3 at the edge and YOLOv3-{320,416,608} at the
// cloud. This repository substitutes simulated models (no GPUs, no ONNX):
// a model turns a frame's ground-truth objects into detections through a
// per-object stochastic channel — miss, correct detection, or
// misclassification — plus background false positives, and assigns each
// detection a confidence drawn from an outcome-conditioned distribution.
// The joint (correctness, confidence) distribution is the property every
// Croesus experiment depends on: correct detections concentrate at high
// confidence, mislabels in the middle band, false positives at the bottom,
// which is exactly what makes the paper's (θL, θU) bandwidth thresholding
// meaningful.
//
// Detections are a pure function of (model seed, frame index, track ID), so
// different pipeline configurations observe identical detections for the
// same video — comparisons between baselines are exact, not sampled.
package detect

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"croesus/internal/randsrc"
	"croesus/internal/video"
)

// Detection is one detected object.
type Detection struct {
	Label      string
	Confidence float64
	Box        video.Rect
	TrackID    int // 0 for false positives; otherwise ground-truth track hit
}

// Result is the outcome of running a model on one frame.
type Result struct {
	Detections []Detection
	// Latency is the model's inference time for this frame on a
	// reference (speed factor 1.0) machine. Nodes divide by their
	// machine speed before sleeping.
	Latency time.Duration
}

// Model is a detection model.
type Model interface {
	Name() string
	Detect(f *video.Frame) Result
}

// ConfDist is a truncated-normal confidence distribution.
type ConfDist struct {
	Mean, Std float64
}

func (c ConfDist) sample(rng *rand.Rand) float64 {
	v := c.Mean + rng.NormFloat64()*c.Std
	if v < 0.01 {
		v = 0.01
	}
	if v > 0.99 {
		v = 0.99
	}
	return v
}

// SimParams configures a simulated model.
type SimParams struct {
	ModelName string
	Seed      int64

	// Latency model: Base + PerObject * len(frame.Objects).
	BaseLatency      time.Duration
	PerObjectLatency time.Duration

	// Detection channel. An object of difficulty d is detected with
	// probability clamp(RecallBase - RecallSlope*d); a detected object is
	// mislabeled with probability clamp(MislabelBase + MislabelSlope*d).
	RecallBase    float64
	RecallSlope   float64
	MislabelBase  float64
	MislabelSlope float64

	// Mean number of spurious detections per frame (Poisson).
	FalsePosPerFrame float64

	// Box localization noise (fraction of box size).
	BoxJitter float64

	// Outcome-conditioned confidence. DifficultyDrag shifts correct-
	// detection confidence down as objects get harder, which couples
	// confidence with error probability.
	ConfCorrect    ConfDist
	ConfWrong      ConfDist
	ConfFalse      ConfDist
	DifficultyDrag float64

	// Confusion maps a true class to plausible wrong labels. When a class
	// is absent the model invents "background" mislabels.
	Confusion map[string][]string
}

// SimModel is a deterministic simulated detector.
type SimModel struct {
	p SimParams
	// fpLabels caches the sorted confusion keys randomLabel would rebuild
	// per false positive — the confusion map is fixed at construction.
	fpLabels []string
}

// NewSim returns a simulated model with the given parameters.
func NewSim(p SimParams) *SimModel {
	if p.ConfCorrect.Std == 0 {
		p.ConfCorrect = ConfDist{0.80, 0.10}
	}
	if p.ConfWrong.Std == 0 {
		p.ConfWrong = ConfDist{0.55, 0.07}
	}
	if p.ConfFalse.Std == 0 {
		p.ConfFalse = ConfDist{0.25, 0.10}
	}
	m := &SimModel{p: p}
	m.fpLabels = make([]string, 0, len(p.Confusion))
	for k := range p.Confusion {
		m.fpLabels = append(m.fpLabels, k)
	}
	sort.Strings(m.fpLabels)
	return m
}

// Name returns the model name.
func (m *SimModel) Name() string { return m.p.ModelName }

// frameRNG derives a deterministic RNG for (seed, frame index) by hashing
// the pair into a seed, so detections don't depend on call order. The RNG
// is pooled (randsrc); the caller must Put it back when done.
func frameRNG(seed int64, frameIdx int) *randsrc.R {
	return randsrc.Get(int64(randsrc.Mix64(uint64(seed) ^ (uint64(frameIdx)+1)*0x9E3779B97F4A7C15)))
}

// trackUniform returns a uniform value in [0,1) that is stable for a
// (model, track) pair across frames. Real CNN confusions are persistent —
// a network that mistakes one particular dog for a cat keeps doing so —
// and this is what makes correction feedback (package smoothing)
// worthwhile, exactly as the paper's §2.1 footnote describes.
func trackUniform(seed int64, trackID int, salt uint64) float64 {
	z := randsrc.Mix64(uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(trackID)*0xD1B54A32D192ED03 ^ salt)
	return float64(z>>11) / float64(1<<53)
}

// Detect runs the simulated model over one frame.
func (m *SimModel) Detect(f *video.Frame) Result {
	p := m.p
	fr := frameRNG(p.Seed, f.Index)
	defer fr.Put()
	rng := fr.Rand

	dets := make([]Detection, 0, len(f.Objects)+2)
	for _, obj := range f.Objects {
		recall := clamp01(p.RecallBase - p.RecallSlope*obj.Difficulty)
		if rng.Float64() >= recall {
			continue // miss
		}
		box := jitterBox(obj.Box, p.BoxJitter, rng)
		// The mislabel decision and the confused class are stable per
		// track: object-level confusions persist across frames.
		mis := clamp01(p.MislabelBase + p.MislabelSlope*obj.Difficulty)
		if trackUniform(p.Seed, obj.TrackID, 0x1) < mis {
			classR := randsrc.Get(int64(randsrc.Mix64(uint64(p.Seed) ^ uint64(obj.TrackID)*0xA24BAED4963EE407)))
			label := confuse(obj.Class, p.Confusion, classR.Rand)
			classR.Put()
			dets = append(dets, Detection{
				Label:      label,
				Confidence: p.ConfWrong.sample(rng),
				Box:        box,
				TrackID:    obj.TrackID,
			})
			continue
		}
		cd := p.ConfCorrect
		cd.Mean -= p.DifficultyDrag * obj.Difficulty
		dets = append(dets, Detection{
			Label:      obj.Class,
			Confidence: cd.sample(rng),
			Box:        box,
			TrackID:    obj.TrackID,
		})
	}

	// Background false positives.
	for n := poisson(rng, p.FalsePosPerFrame); n > 0; n-- {
		s := 0.03 + rng.Float64()*0.1
		dets = append(dets, Detection{
			Label:      pickLabel(m.fpLabels, rng),
			Confidence: p.ConfFalse.sample(rng),
			Box:        video.Rect{X: rng.Float64() * (1 - s), Y: rng.Float64() * (1 - s), W: s, H: s}.Clamp(),
		})
	}

	// Stable presentation order: by confidence descending, then box.
	slices.SortFunc(dets, func(a, b Detection) int {
		if a.Confidence != b.Confidence {
			if a.Confidence > b.Confidence {
				return -1
			}
			return 1
		}
		if a.Box.X != b.Box.X {
			if a.Box.X < b.Box.X {
				return -1
			}
			return 1
		}
		return 0
	})

	return Result{
		Detections: dets,
		Latency:    p.BaseLatency + time.Duration(len(f.Objects))*p.PerObjectLatency,
	}
}

func jitterBox(b video.Rect, frac float64, rng *rand.Rand) video.Rect {
	if frac <= 0 {
		return b
	}
	b.X += rng.NormFloat64() * frac * b.W
	b.Y += rng.NormFloat64() * frac * b.H
	b.W *= 1 + rng.NormFloat64()*frac
	b.H *= 1 + rng.NormFloat64()*frac
	if b.W < 0.005 {
		b.W = 0.005
	}
	if b.H < 0.005 {
		b.H = 0.005
	}
	return b.Clamp()
}

func confuse(class string, confusion map[string][]string, rng *rand.Rand) string {
	if alts, ok := confusion[class]; ok && len(alts) > 0 {
		return alts[rng.Intn(len(alts))]
	}
	return class + "-lookalike"
}

func randomLabel(confusion map[string][]string, rng *rand.Rand) string {
	keys := make([]string, 0, len(confusion))
	for k := range confusion {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return pickLabel(keys, rng)
}

// pickLabel draws a false-positive label from the pre-sorted confusion
// keys, consuming exactly the randomness randomLabel would.
func pickLabel(sortedKeys []string, rng *rand.Rand) string {
	if len(sortedKeys) == 0 {
		return "clutter"
	}
	return sortedKeys[rng.Intn(len(sortedKeys))]
}

func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's method; means here are small (< 3).
	l := 1.0
	limit := math.Exp(-mean)
	k := 0
	for {
		l *= rng.Float64()
		if l <= limit {
			return k
		}
		k++
		if k > 50 {
			return k
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
