package core

import (
	"math"
	"time"

	"croesus/internal/detect"
	"croesus/internal/netsim"
	"croesus/internal/obs"
	"croesus/internal/transport"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// ValidationStatus classifies how a cloud validation request concluded.
type ValidationStatus int

const (
	// Validated means the cloud labels arrived and the final sections run
	// with real corrections.
	Validated ValidationStatus = iota
	// ValidationShed means admission control dropped the request before
	// the cloud model ran; the edge finalizes with its own labels assumed
	// correct — Croesus' degradation mode.
	ValidationShed
	// ValidationLost means the request (or its reply) was lost in
	// transit — a partitioned uplink or a dropped cloud connection; the
	// edge finalizes locally.
	ValidationLost
)

func (s ValidationStatus) String() string {
	switch s {
	case Validated:
		return "validated"
	case ValidationShed:
		return "shed"
	case ValidationLost:
		return "lost"
	default:
		return "unknown"
	}
}

// ValidationRequest carries one frame from the edge hub to a graph node's
// Validator.
type ValidationRequest struct {
	// Frame is the captured frame to validate.
	Frame *video.Frame
	// Edge holds the labels the client currently renders, for validators
	// that want them (e.g. to prioritize by disagreement potential).
	Edge []detect.Detection
	// Section is the index of the graph node the request runs.
	Section int
	// Margin is the shedding priority under overload: how deep inside
	// the validate interval [θL, θU] the frame's most ambiguous detection
	// sits, normalized to [0, 1] by the interval half-width. A low margin
	// means every in-band detection is near an interval edge — the edge
	// answer is likely right either way — so low-margin frames are shed
	// first.
	Margin float64
	// Trace is the frame's span context, carried so the validator's queue
	// and shed spans — and the wire messages it sends — stay causally
	// linked to the frame. Zero when tracing is off.
	Trace obs.SpanContext
}

// ValidationResult is the validator's reply for one frame. The latency
// components slot into the frame's Breakdown.
type ValidationResult struct {
	Status ValidationStatus
	// Cloud holds the full-model labels (Validated only).
	Cloud []detect.Detection
	// EdgeCloud is preprocessing plus the edge→cloud transfer.
	EdgeCloud time.Duration
	// CloudQueue is the wait between arrival at the validator and cloud
	// compute starting — slot wait for the direct path, enqueue→dispatch
	// for a batched validator.
	CloudQueue time.Duration
	// CloudDetect is the pure cloud compute time once a slot (or batch)
	// starts running.
	CloudDetect time.Duration
	// CloudReturn is the label-return transfer back to the edge.
	CloudReturn time.Duration
}

// Validator runs one graph node off the hub (GraphNode.Validator):
// full-model validation of one frame. The pipeline calls Validate on the
// frame's own goroutine; implementations block in clock time until labels
// return (or the request is shed or lost) and must be safe for concurrent
// use — frames overlap.
//
// The direct model call of the paper's single-edge deployment is the
// trivial implementation (DirectValidator); internal/cluster provides an
// SLO-aware batching implementation shared by a fleet of edges.
type Validator interface {
	Validate(req ValidationRequest) ValidationResult
}

// Uplink models the edge→cloud hop every validator implementation
// shares: frame preprocessing and the link transfer. Keeping it in one
// place guarantees the single-edge and fleet simulations cross the hop
// identically.
type Uplink struct {
	Clock   vclock.Clock
	Link    transport.Path
	Preproc netsim.Preprocessor
	// EdgeSpeed scales preprocessing cost.
	EdgeSpeed float64
}

// Ship carries one frame across the hop, sleeping out the transfer, and
// returns the transfer time.
func (u Uplink) Ship(f *video.Frame) time.Duration {
	clk := u.Clock
	preproc := u.Preproc
	if preproc == nil {
		preproc = netsim.Identity{}
	}
	t0 := clk.Now()
	bytes, prepCost := preproc.Process(f.SizeBytes)
	clk.Sleep(scale(prepCost, u.EdgeSpeed))
	u.Link.Send(clk, bytes)
	return clk.Now() - t0
}

// DirectValidator is the unbatched validation path: preprocess, cross the
// edge→cloud link, run the full model under the cloud compute slots, and
// return the labels. It reproduces exactly the paper's single-edge cloud
// stage.
type DirectValidator struct {
	Clock   vclock.Clock
	Link    transport.Path
	Preproc netsim.Preprocessor
	Model   detect.Model
	Slots   *vclock.Semaphore
	// EdgeSpeed scales preprocessing cost; CloudSpeed scales inference.
	EdgeSpeed  float64
	CloudSpeed float64
}

// Validate implements Validator.
func (v *DirectValidator) Validate(req ValidationRequest) ValidationResult {
	clk := v.Clock
	var res ValidationResult

	up := Uplink{Clock: clk, Link: v.Link, Preproc: v.Preproc, EdgeSpeed: v.EdgeSpeed}
	res.EdgeCloud = up.Ship(req.Frame)

	tq := clk.Now()
	v.Slots.Acquire()
	t1 := clk.Now()
	r := v.Model.Detect(req.Frame)
	clk.Sleep(scale(r.Latency, v.CloudSpeed))
	v.Slots.Release()
	res.CloudQueue = t1 - tq
	res.CloudDetect = clk.Now() - t1

	t2 := clk.Now()
	v.Link.Send(clk, netsim.LabelReturnBytes)
	res.CloudReturn = clk.Now() - t2

	res.Cloud = r.Detections
	res.Status = Validated
	return res
}

// ValidationMargin scores how much a frame stands to gain from cloud
// validation: the depth of its most ambiguous detection inside the
// validate interval, normalized to [0, 1]. See ValidationRequest.Margin.
func ValidationMargin(dets []detect.Detection, thetaL, thetaU float64) float64 {
	half := (thetaU - thetaL) / 2
	best := 0.0
	for _, d := range dets {
		if d.Confidence < thetaL || d.Confidence > thetaU {
			continue
		}
		m := math.Min(d.Confidence-thetaL, thetaU-d.Confidence)
		if half > 0 {
			m /= half
		} else {
			m = 1
		}
		if m > best {
			best = m
		}
	}
	return best
}
