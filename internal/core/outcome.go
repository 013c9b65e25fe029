package core

import (
	"time"

	"croesus/internal/detect"
	"croesus/internal/metrics"
	"croesus/internal/txn"
	"croesus/internal/video"
)

// Breakdown decomposes a frame's end-to-end latency into the components the
// paper's Figure 2 stacks: client→edge transfer, edge detection, initial
// transaction, edge→cloud transfer, cloud detection, label return, final
// transaction — plus the contended-resource components (pool wait, batcher
// queue, lock wait, 2PC fan-out) that attribute where a slow frame lost
// its time. ComputeWait precedes EdgeDetect; CloudQueue precedes
// CloudDetect (which is pure batch compute); LockWait and TwoPC are the
// transactional shares of InitialTxn+FinalTxn.
type Breakdown struct {
	ClientEdge  time.Duration
	ComputeWait time.Duration // waiting for an edge inference slot
	EdgeDetect  time.Duration
	InitialTxn  time.Duration
	EdgeCloud   time.Duration
	CloudQueue  time.Duration // batcher/validator queue before cloud compute
	CloudDetect time.Duration
	CloudReturn time.Duration
	FinalTxn    time.Duration
	LockWait    time.Duration // lock acquisition inside the txn sections
	TwoPC       time.Duration // prepare/commit fan-out inside the txn sections
}

// CriticalPath buckets the breakdown into the five components of the
// report's critical-path view. Lock and 2PC time are carved out of the
// transaction sections; queue is everything spent waiting for a
// contended compute resource; network is pure transfer.
func (b Breakdown) CriticalPath() (compute, queue, lock, twopc, network time.Duration) {
	compute = b.EdgeDetect + b.CloudDetect
	queue = b.ComputeWait + b.CloudQueue
	lock = b.LockWait
	twopc = b.TwoPC
	network = b.ClientEdge + b.EdgeCloud + b.CloudReturn
	return
}

func (b *Breakdown) add(o Breakdown) {
	b.ClientEdge += o.ClientEdge
	b.ComputeWait += o.ComputeWait
	b.EdgeDetect += o.EdgeDetect
	b.InitialTxn += o.InitialTxn
	b.EdgeCloud += o.EdgeCloud
	b.CloudQueue += o.CloudQueue
	b.CloudDetect += o.CloudDetect
	b.CloudReturn += o.CloudReturn
	b.FinalTxn += o.FinalTxn
	b.LockWait += o.LockWait
	b.TwoPC += o.TwoPC
}

func (b *Breakdown) div(n int) {
	if n == 0 {
		return
	}
	d := time.Duration(n)
	b.ClientEdge /= d
	b.ComputeWait /= d
	b.EdgeDetect /= d
	b.InitialTxn /= d
	b.EdgeCloud /= d
	b.CloudQueue /= d
	b.CloudDetect /= d
	b.CloudReturn /= d
	b.FinalTxn /= d
	b.LockWait /= d
	b.TwoPC /= d
}

// SectionOutcome decomposes one graph section's share of a frame — the
// per-section analogue of Breakdown. Section k's boundary commit belongs to
// graph node k, whose name and tier are Graph.Nodes[k]'s.
type SectionOutcome struct {
	// Hop and Detect are the off-hub leg of a peer or cloud node: the
	// network time shipping the frame into its tier and its model's
	// inference time. Both are zero for edge-tier nodes — they run on the
	// hub, charged to Breakdown.ComputeWait and EdgeDetect — and when the
	// route skipped the node and its section committed locally.
	Hop    time.Duration
	Detect time.Duration
	// Txn is the wall time inside this section's transaction executions;
	// LockWait and TwoPC are its transactional shares.
	Txn      time.Duration
	LockWait time.Duration
	TwoPC    time.Duration
	// Latency is capture → this section's boundary commit at the client.
	Latency time.Duration
}

// FrameOutcome is the client-observable result of one frame.
type FrameOutcome struct {
	FrameIndex int
	CapturedAt time.Duration

	// EdgeDetections are node 0's post-filter labels, before the θL
	// discard.
	EdgeDetections []detect.Detection
	// InitialVisible is what the client renders at the initial commit.
	InitialVisible []detect.Detection
	// FinalVisible is what the client renders after the final commit
	// (corrections applied).
	FinalVisible []detect.Detection

	SentToCloud bool
	// CloudLost marks a validated frame whose cloud reply never arrived
	// (a partitioned uplink or a lost cloud connection); the edge
	// finalized locally with its own labels.
	CloudLost bool
	// Shed marks a frame dropped by the validator's admission control
	// (overload); the edge finalized locally with its own labels — the
	// client keeps the edge answer instead of the SLO being violated.
	Shed                bool
	DiscardedDetections int
	TxnsTriggered       int
	InitialAborts       int
	FinalErrors         int
	Corrections         int
	Apologies           []txn.Apology

	// InitialLatency and FinalLatency measure capture → client render.
	InitialLatency time.Duration
	FinalLatency   time.Duration
	Breakdown      Breakdown

	// Sections is the per-section decomposition, one entry per graph node.
	Sections []SectionOutcome
}

// Summary aggregates a run for one video.
type Summary struct {
	Video  string
	Mode   Mode
	Frames int

	// BU is bandwidth utilization: the fraction of frames sent to the
	// cloud (the paper's δ).
	BU float64
	// F1Initial scores the initial-commit render against the cloud
	// ground truth for the query class; F1Final scores the corrected
	// render — the paper's client-perspective accuracy.
	F1Initial float64
	F1Final   float64

	MeanInitialLatency time.Duration
	MeanFinalLatency   time.Duration
	MeanBreakdown      Breakdown

	TxnsTriggered int
	Corrections   int
	Apologies     int
	InitialAborts int

	// Validated counts frames that received cloud labels; Shed and
	// CloudLost count the two degradation paths (admission control and
	// transit loss), both of which keep the edge answer.
	Validated int
	Shed      int
	CloudLost int
}

// Summarize scores outcomes against ground truth. truth returns the
// reference detections for a frame index (by convention, the configured
// cloud model's output, as in the paper's evaluation); queryClass is the
// video's object query.
func Summarize(videoName string, mode Mode, queryClass string, outcomes []FrameOutcome, truth func(int) []detect.Detection, overlapMin float64) Summary {
	t := Tally{QueryClass: queryClass, OverlapMin: overlapMin}
	for i := range outcomes {
		t.Add(&outcomes[i], truth(outcomes[i].FrameIndex))
	}
	return t.Summary(videoName, mode)
}

// Tally is Summarize as a running fold, for a caller that scores each frame
// as it finalizes and keeps neither the frame nor its label sets: Add
// scores one outcome, Summary divides out the means. Every running sum is
// an integer — match counts and durations — so the order frames are added
// in cannot change the Summary.
type Tally struct {
	QueryClass string
	OverlapMin float64

	// s holds the counts, and in its Mean fields the sums Summary divides.
	s              Summary
	initial, final metrics.Counts
	sent           int
}

// Add scores one frame's outcome against its reference labels.
func (t *Tally) Add(o *FrameOutcome, ref []detect.Detection) {
	s := &t.s
	s.Frames++
	t.initial.Add(metrics.ScoreClass(o.InitialVisible, ref, t.QueryClass, t.OverlapMin))
	t.final.Add(metrics.ScoreClass(o.FinalVisible, ref, t.QueryClass, t.OverlapMin))
	if o.SentToCloud {
		t.sent++
		switch {
		case o.Shed:
			s.Shed++
		case o.CloudLost:
			s.CloudLost++
		default:
			s.Validated++
		}
	}
	s.MeanInitialLatency += o.InitialLatency
	s.MeanFinalLatency += o.FinalLatency
	s.MeanBreakdown.add(o.Breakdown)
	s.TxnsTriggered += o.TxnsTriggered
	s.Corrections += o.Corrections
	s.Apologies += len(o.Apologies)
	s.InitialAborts += o.InitialAborts
}

// Summary returns the run so far as one video's Summary.
func (t *Tally) Summary(videoName string, mode Mode) Summary {
	s := t.s
	s.Video, s.Mode = videoName, mode
	if n := s.Frames; n > 0 {
		s.BU = float64(t.sent) / float64(n)
		s.MeanInitialLatency /= time.Duration(n)
		s.MeanFinalLatency /= time.Duration(n)
		s.MeanBreakdown.div(n)
	}
	s.F1Initial = t.initial.F1()
	s.F1Final = t.final.F1()
	return s
}

// TruthFromModel precomputes per-frame ground truth using the given model
// (pure detection, no latency), returning a lookup by frame index.
func TruthFromModel(m detect.Model, frames []*video.Frame) func(int) []detect.Detection {
	byIdx := make(map[int][]detect.Detection, len(frames))
	for _, f := range frames {
		byIdx[f.Index] = m.Detect(f).Detections
	}
	return func(i int) []detect.Detection { return byIdx[i] }
}
