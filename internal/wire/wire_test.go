package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"croesus/internal/detect"
	"croesus/internal/video"
)

// pipeRWC adapts an in-memory duplex pipe to io.ReadWriteCloser.
type pipeRWC struct {
	io.Reader
	io.Writer
}

func (pipeRWC) Close() error { return nil }

func pair() (*Conn, *Conn) {
	aToB := &bytes.Buffer{}
	bToA := &bytes.Buffer{}
	a := NewConn(pipeRWC{Reader: bToA, Writer: aToB})
	b := NewConn(pipeRWC{Reader: aToB, Writer: bToA})
	return a, b
}

func sampleFrame() video.Frame {
	return video.Frame{
		Index: 7, At: 3 * time.Second, Width: 1280, Height: 720, SizeBytes: 123456,
		Objects: []video.Object{{TrackID: 1, Class: "dog", Box: video.Rect{X: 0.1, Y: 0.2, W: 0.3, H: 0.4}, Difficulty: 0.5}},
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	a, b := pair()
	want := &Envelope{Kind: KindFrame, Frame: &Frame{Frame: sampleFrame(), Padding: []byte{1, 2, 3}}}
	if err := a.Send(want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.Kind != KindFrame || got.Frame == nil {
		t.Fatalf("got %+v", got)
	}
	if got.Frame.Frame.Index != 7 || len(got.Frame.Frame.Objects) != 1 || len(got.Frame.Padding) != 3 {
		t.Errorf("frame fields lost: %+v", got.Frame)
	}
}

// allKinds is the protocol's complete kind set; the round-trip table below
// must cover every entry, so adding a kind without wire-test coverage
// fails here.
var allKinds = []Kind{
	KindFrame, KindInitialReply, KindFinalReply,
	KindCloudRequest, KindCloudResponse,
	KindBye,
	KindControl, KindControlReply,
}

// TestAllKindsRoundTrip sends one envelope of every message type —
// including the batched-cloud fields (Margin, Shed) the TCP deployment
// added — and checks each payload's fields survive the trip intact.
func TestAllKindsRoundTrip(t *testing.T) {
	d := detect.Detection{Label: "dog", Confidence: 0.9, Box: video.Rect{X: 0.1, Y: 0.1, W: 0.2, H: 0.2}, TrackID: 4}
	cases := []struct {
		env   *Envelope
		check func(t *testing.T, got *Envelope)
	}{
		{
			env: &Envelope{Kind: KindFrame, Frame: &Frame{Frame: sampleFrame(), Padding: []byte{9}}},
			check: func(t *testing.T, got *Envelope) {
				if got.Frame.Frame.Index != 7 || len(got.Frame.Padding) != 1 {
					t.Errorf("frame fields lost: %+v", got.Frame)
				}
			},
		},
		{
			env: &Envelope{Kind: KindInitialReply, InitialReply: &InitialReply{FrameIndex: 1, Labels: []detect.Detection{d}, Triggered: 2, Aborted: 1, SentToCloud: true, EdgeElapsed: time.Second}},
			check: func(t *testing.T, got *Envelope) {
				r := got.InitialReply
				if r.FrameIndex != 1 || len(r.Labels) != 1 || r.Triggered != 2 || r.Aborted != 1 || !r.SentToCloud || r.EdgeElapsed != time.Second {
					t.Errorf("initial reply fields lost: %+v", r)
				}
			},
		},
		{
			env: &Envelope{Kind: KindFinalReply, FinalReply: &FinalReply{FrameIndex: 1, Labels: []detect.Detection{d}, Corrections: 1, Apologies: []string{"sorry"}, Shed: true}},
			check: func(t *testing.T, got *Envelope) {
				r := got.FinalReply
				if r.Corrections != 1 || len(r.Apologies) != 1 || !r.Shed {
					t.Errorf("final reply fields lost: %+v", r)
				}
			},
		},
		{
			env: &Envelope{Kind: KindCloudRequest, CloudRequest: &CloudRequest{FrameIndex: 2, Frame: sampleFrame(), Padding: []byte{1, 2}, Margin: 0.42}},
			check: func(t *testing.T, got *Envelope) {
				r := got.CloudRequest
				if r.FrameIndex != 2 || r.Margin != 0.42 || len(r.Padding) != 2 {
					t.Errorf("cloud request fields lost: %+v", r)
				}
			},
		},
		{
			env: &Envelope{Kind: KindCloudResponse, CloudResponse: &CloudResponse{FrameIndex: 2, Labels: []detect.Detection{d}, DetectTime: time.Second, Shed: true}},
			check: func(t *testing.T, got *Envelope) {
				r := got.CloudResponse
				if r.FrameIndex != 2 || !r.Shed || r.DetectTime != time.Second {
					t.Errorf("cloud response fields lost: %+v", r)
				}
			},
		},
		{
			env: &Envelope{Kind: KindControl, Control: &Control{Seq: 7, Op: "link", Path: "cloud", Addr: "127.0.0.1:9", Down: true, Rate: 1.5}},
			check: func(t *testing.T, got *Envelope) {
				c := got.Control
				if c.Seq != 7 || c.Op != "link" || c.Path != "cloud" || c.Addr != "127.0.0.1:9" || !c.Down || c.Rate != 1.5 {
					t.Errorf("control fields lost: %+v", c)
				}
			},
		},
		{
			env: &Envelope{Kind: KindControlReply, ControlReply: &ControlReply{Seq: 7, OK: true, Err: "e", Data: []byte(`{"x":1}`)}},
			check: func(t *testing.T, got *Envelope) {
				r := got.ControlReply
				if r.Seq != 7 || !r.OK || r.Err != "e" || string(r.Data) != `{"x":1}` {
					t.Errorf("control reply fields lost: %+v", r)
				}
			},
		},
		{
			env:   &Envelope{Kind: KindBye},
			check: func(t *testing.T, got *Envelope) {},
		},
	}

	covered := map[Kind]bool{}
	a, b := pair()
	for _, tc := range cases {
		covered[tc.env.Kind] = true
		if err := a.Send(tc.env); err != nil {
			t.Fatalf("Send(%s): %v", tc.env.Kind, err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv(%s): %v", tc.env.Kind, err)
		}
		if got.Kind != tc.env.Kind {
			t.Fatalf("kind = %s, want %s", got.Kind, tc.env.Kind)
		}
		tc.check(t, got)
	}
	for _, k := range allKinds {
		if !covered[k] {
			t.Errorf("message kind %q has no round-trip coverage", k)
		}
	}
}

// TestTraceCtxRoundTrip checks every message type that can carry a trace
// context preserves it, and that an absent context stays nil — the
// untraced wire format must be unchanged.
func TestTraceCtxRoundTrip(t *testing.T) {
	tc := &TraceCtx{Trace: 1234567890123456789, Parent: 42, Section: 2}
	a, b := pair()
	envs := []*Envelope{
		{Kind: KindFrame, Frame: &Frame{Frame: sampleFrame(), Trace: tc}},
		{Kind: KindInitialReply, InitialReply: &InitialReply{FrameIndex: 1, Trace: tc}},
		{Kind: KindFinalReply, FinalReply: &FinalReply{FrameIndex: 1, Trace: tc}},
		{Kind: KindCloudRequest, CloudRequest: &CloudRequest{FrameIndex: 2, Frame: sampleFrame(), Trace: tc}},
		{Kind: KindCloudResponse, CloudResponse: &CloudResponse{FrameIndex: 2, Trace: tc}},
	}
	extract := func(e *Envelope) *TraceCtx {
		switch e.Kind {
		case KindFrame:
			return e.Frame.Trace
		case KindInitialReply:
			return e.InitialReply.Trace
		case KindFinalReply:
			return e.FinalReply.Trace
		case KindCloudRequest:
			return e.CloudRequest.Trace
		case KindCloudResponse:
			return e.CloudResponse.Trace
		}
		return nil
	}
	for _, env := range envs {
		if err := a.Send(env); err != nil {
			t.Fatalf("Send(%s): %v", env.Kind, err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv(%s): %v", env.Kind, err)
		}
		g := extract(got)
		if g == nil || *g != *tc {
			t.Errorf("%s: trace ctx = %+v, want %+v", env.Kind, g, tc)
		}
	}
	// Untraced messages arrive with a nil context.
	if err := a.Send(&Envelope{Kind: KindCloudResponse, CloudResponse: &CloudResponse{FrameIndex: 7}}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.CloudResponse.Trace != nil {
		t.Errorf("untraced response grew a context: %+v", got.CloudResponse.Trace)
	}
}

func TestValidateRejectsMismatches(t *testing.T) {
	bad := []*Envelope{
		{Kind: KindFrame},                          // missing payload
		{Kind: KindInitialReply},                   // missing payload
		{Kind: Kind("nonsense")},                   // unknown kind
		{Kind: KindCloudResponse, Frame: &Frame{}}, // wrong payload
		{Kind: Kind("payload")},                    // retired kind
		{Kind: Kind("ack")},                        // retired kind
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", e)
		}
	}
	// Every non-bye kind must reject an empty envelope of its kind.
	for _, k := range allKinds {
		if k == KindBye {
			continue
		}
		if err := (&Envelope{Kind: k}).Validate(); err == nil {
			t.Errorf("empty %q envelope accepted", k)
		}
	}
	if err := (&Envelope{Kind: KindBye}).Validate(); err != nil {
		t.Errorf("bye rejected: %v", err)
	}
}

func TestSendRejectsInvalid(t *testing.T) {
	a, _ := pair()
	if err := a.Send(&Envelope{Kind: KindFrame}); err == nil {
		t.Error("Send accepted an invalid envelope")
	}
}

func TestRecvRejectsCorruptStream(t *testing.T) {
	buf := bytes.NewBufferString("this is not gob")
	c := NewConn(pipeRWC{Reader: buf, Writer: &bytes.Buffer{}})
	if _, err := c.Recv(); err == nil {
		t.Error("Recv decoded garbage")
	}
}

func TestRecvEOF(t *testing.T) {
	c := NewConn(pipeRWC{Reader: &bytes.Buffer{}, Writer: &bytes.Buffer{}})
	if _, err := c.Recv(); !errors.Is(err, io.EOF) {
		t.Errorf("Recv on empty stream = %v, want EOF", err)
	}
}
