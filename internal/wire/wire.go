// Package wire defines the message protocol spoken between the processes
// of the real TCP deployment (croesus client, edge and cloud).
// Every connection carries a stream of Envelopes; the Kind field selects
// the payload, keeping decoding trivial and version drift visible. The
// framing and per-kind encoding live in codec.go: one length-prefixed
// binary codec for every kind, data plane and control channel alike.
package wire

import (
	"fmt"
	"time"

	"croesus/internal/detect"
	"croesus/internal/video"
)

// Kind discriminates envelope payloads.
type Kind string

// Message kinds.
const (
	KindFrame         Kind = "frame"          // client → edge
	KindInitialReply  Kind = "initial-reply"  // edge → client
	KindFinalReply    Kind = "final-reply"    // edge → client
	KindCloudRequest  Kind = "cloud-request"  // edge → cloud
	KindCloudResponse Kind = "cloud-response" // cloud → edge
	KindBye           Kind = "bye"            // either direction: drain and close
	KindControl       Kind = "control"        // orchestrator → node: control-channel command
	KindControlReply  Kind = "control-reply"  // node → orchestrator: command result
)

// TraceCtx is the compact trace context a wire message carries so spans
// emitted on opposite ends of a socket link into one tree. Trace is the
// 64-bit trace ID minted by the originating process (client or edge);
// Parent is the span on the sending side that causally encloses the
// receiver's work; Section is the inference-graph section index the hop
// serves (1 for the two-stage graph's cloud node). Messages from untraced
// processes leave the pointer nil — the codec spends one flag byte on the
// absent case, so the untraced wire cost is unchanged.
type TraceCtx struct {
	Trace   uint64
	Parent  uint64
	Section int
}

// Frame is a client-submitted video frame. Padding (optional) carries
// synthetic payload bytes so the wire cost resembles a real encoded frame.
type Frame struct {
	Frame   video.Frame
	Padding []byte
	Trace   *TraceCtx
}

// InitialReply is the initial-commit response for one frame.
type InitialReply struct {
	FrameIndex  int
	Labels      []detect.Detection
	Triggered   int // transactions triggered
	Aborted     int
	SentToCloud bool
	EdgeElapsed time.Duration // edge receive → initial commit
	Trace       *TraceCtx     // echo of the frame's context (Parent = edge root span)
}

// FinalReply is the final-commit response for one frame. Shed reports that
// the cloud batcher dropped this frame's validation under overload, so the
// final labels are the edge's own.
type FinalReply struct {
	FrameIndex  int
	Labels      []detect.Detection
	Corrections int
	Apologies   []string
	Shed        bool
	EdgeElapsed time.Duration // edge receive → final commit
	Trace       *TraceCtx     // echo of the frame's context (Parent = edge root span)
}

// CloudRequest asks the cloud node to detect one frame. Margin is the
// frame's shedding priority (core.ValidationMargin): under overload the
// cloud batcher sheds the lowest-margin frames first. Section is the index
// of the graph section this hop serves (1 on the two-stage graph, whose
// only cloud hop is the final validation).
type CloudRequest struct {
	FrameIndex int
	Frame      video.Frame
	Padding    []byte
	Margin     float64
	Section    int
	Trace      *TraceCtx // Parent = the edge's rpc.cloud span for this hop
}

// CloudResponse returns the cloud labels for one frame. Shed means the
// cloud's admission control dropped the request before the model ran; the
// edge finalizes with its own labels — Croesus' degradation mode over real
// sockets.
type CloudResponse struct {
	FrameIndex int
	Labels     []detect.Detection
	DetectTime time.Duration
	Shed       bool
	Trace      *TraceCtx // echo of the request's context
}

// Control is one orchestrator command on a node's control channel
// (croesus fleet → croesus edge/cloud/client). Op selects the command;
// the remaining fields are its operands — unused ones stay zero. The
// defined ops:
//
//	ping        liveness probe; Data echoes the node role
//	report      Data returns the node's progress report as JSON
//	drain       edge: finish in-flight frames, refuse new ones (edge_retire)
//	link        edge: blackhole (Down=true) or heal the named Path
//	            ("cloud" or "client") — a per-path link fault
//	rate        client: multiply the capture rate by Rate (workload_shift)
//	redial      client: reconnect to the edge at Addr (migrate_camera)
//	checkpoint  edge: compact the WAL to a snapshot of current state
//	verify      edge: the durability check (twopc.Partition.VerifyWAL) —
//	            the same one the sim's VerifyDurability runs per partition
//	quit        shut down gracefully (flush traces and reports first)
type Control struct {
	Seq  uint64
	Op   string
	Path string
	Addr string
	Down bool
	Rate float64
}

// ControlReply answers the Control with the same Seq. Data carries the
// op-specific result as JSON (reports, verification verdicts).
type ControlReply struct {
	Seq  uint64
	OK   bool
	Err  string
	Data []byte
}

// Envelope is the single on-wire message type.
type Envelope struct {
	Kind          Kind
	Frame         *Frame
	InitialReply  *InitialReply
	FinalReply    *FinalReply
	CloudRequest  *CloudRequest
	CloudResponse *CloudResponse
	Control       *Control
	ControlReply  *ControlReply
}

// Validate checks that the payload matches the kind.
func (e *Envelope) Validate() error {
	var ok bool
	switch e.Kind {
	case KindFrame:
		ok = e.Frame != nil
	case KindInitialReply:
		ok = e.InitialReply != nil
	case KindFinalReply:
		ok = e.FinalReply != nil
	case KindCloudRequest:
		ok = e.CloudRequest != nil
	case KindCloudResponse:
		ok = e.CloudResponse != nil
	case KindControl:
		ok = e.Control != nil
	case KindControlReply:
		ok = e.ControlReply != nil
	case KindBye:
		ok = true
	default:
		return fmt.Errorf("wire: unknown kind %q", e.Kind)
	}
	if !ok {
		return fmt.Errorf("wire: kind %q with missing payload", e.Kind)
	}
	return nil
}
