package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"croesus/internal/detect"
	"croesus/internal/video"
)

// hotEnvelopes is one representative envelope per hand-encoded kind, with
// edge cases (empty slices, zero values, present and absent trace, nil and
// non-nil control Data) mixed in across the set.
func hotEnvelopes() []*Envelope {
	tc := &TraceCtx{Trace: 0xDEADBEEFCAFE, Parent: 7, Section: 2}
	dets := []detect.Detection{
		{Label: "dog", Confidence: 0.875, Box: video.Rect{X: 0.1, Y: 0.2, W: 0.3, H: 0.4}, TrackID: 3},
		{Label: "", Confidence: 0, Box: video.Rect{}, TrackID: -1},
	}
	return []*Envelope{
		{Kind: KindFrame, Frame: &Frame{Frame: sampleFrame(), Padding: []byte{1, 2, 3}, Trace: tc}},
		{Kind: KindFrame, Frame: &Frame{Frame: video.Frame{Index: -1, At: -time.Second}}},
		{Kind: KindInitialReply, InitialReply: &InitialReply{FrameIndex: 9, Labels: dets, Triggered: 4, Aborted: 1, SentToCloud: true, EdgeElapsed: 250 * time.Millisecond, Trace: tc}},
		{Kind: KindInitialReply, InitialReply: &InitialReply{}},
		{Kind: KindFinalReply, FinalReply: &FinalReply{FrameIndex: 9, Labels: dets, Corrections: 2, Apologies: []string{"label corrected to \"dog\"", ""}, Shed: true, EdgeElapsed: time.Hour}},
		{Kind: KindFinalReply, FinalReply: &FinalReply{}},
		{Kind: KindCloudRequest, CloudRequest: &CloudRequest{FrameIndex: 5, Frame: sampleFrame(), Padding: bytes.Repeat([]byte{0xAB}, 1024), Margin: -0.25, Section: 3, Trace: tc}},
		{Kind: KindCloudRequest, CloudRequest: &CloudRequest{}},
		{Kind: KindCloudResponse, CloudResponse: &CloudResponse{FrameIndex: 5, Labels: dets[:1], DetectTime: 42 * time.Millisecond, Shed: true}},
		{Kind: KindCloudResponse, CloudResponse: &CloudResponse{}},
		{Kind: KindControl, Control: &Control{Seq: 1 << 40, Op: "link", Path: "cloud", Addr: "127.0.0.1:9", Down: true, Rate: -0.5}},
		{Kind: KindControlReply, ControlReply: &ControlReply{Seq: 3, OK: true, Data: []byte(`{"records":12}`)}},
		{Kind: KindControlReply, ControlReply: &ControlReply{Seq: 4, Err: "unknown control op \"x\""}},
		{Kind: KindBye},
	}
}

// gobTrip round-trips an envelope through plain gob — the reference
// semantics the binary codec must reproduce field-for-field.
func gobTrip(t *testing.T, e *Envelope) *Envelope {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out Envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return &out
}

// TestCodecMatchesGob cross-checks every hand-encoded kind: the binary codec's
// round trip must land on exactly the struct gob's round trip lands on
// (including nil-vs-empty slice conventions), so swapping the codec under
// the deployment binaries cannot change observable message content.
func TestCodecMatchesGob(t *testing.T) {
	for i, env := range hotEnvelopes() {
		a, b := pair()
		if err := a.Send(env); err != nil {
			t.Fatalf("#%d (%s) Send: %v", i, env.Kind, err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("#%d (%s) Recv: %v", i, env.Kind, err)
		}
		want := gobTrip(t, env)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("#%d (%s):\n codec = %+v\n gob   = %+v", i, env.Kind, got, want)
		}
	}
}

// TestRecvOwnsData pins down Recv's ownership contract: everything a Recv
// returns must survive later receives on the same connection, even though
// the codec decodes out of a shared per-connection buffer.
func TestRecvOwnsData(t *testing.T) {
	a, b := pair()
	first := &Envelope{Kind: KindFrame, Frame: &Frame{Frame: sampleFrame(), Padding: bytes.Repeat([]byte{0x5A}, 2048)}}
	if err := a.Send(first); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	keep := got.Frame
	// Hammer the same connection with different frames; if Recv aliased
	// the read buffer, these would scribble over the retained message.
	for i := 0; i < 8; i++ {
		pad := bytes.Repeat([]byte{byte(i)}, 4096)
		other := video.Frame{Index: i + 100, Objects: []video.Object{{TrackID: i, Class: fmt.Sprintf("other-%d", i)}}}
		if err := a.Send(&Envelope{Kind: KindFrame, Frame: &Frame{Frame: other, Padding: pad}}); err != nil {
			t.Fatalf("Send #%d: %v", i, err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatalf("Recv #%d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(keep.Frame, sampleFrame()) || len(keep.Padding) != 2048 {
		t.Fatalf("retained frame mutated: %+v pad=%d", keep.Frame, len(keep.Padding))
	}
	for i, v := range keep.Padding {
		if v != 0x5A {
			t.Fatalf("retained padding byte %d overwritten: %#x", i, v)
		}
	}
}

// TestConcurrentSend exercises the documented guarantee that Send is safe
// for concurrent writers: several goroutines share one connection and the
// single reader must see every message whole and uninterleaved. Run under
// -race this also proves the encode-buffer pool and sendMu discipline.
func TestConcurrentSend(t *testing.T) {
	c1, c2 := net.Pipe()
	sender, receiver := NewConn(c1), NewConn(c2)
	defer sender.Close()
	defer receiver.Close()

	const writers, perWriter = 4, 64
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			pad := bytes.Repeat([]byte{byte(w)}, 512+w)
			for i := 0; i < perWriter; i++ {
				e := &Envelope{Kind: KindFrame, Frame: &Frame{Frame: video.Frame{Index: i, Width: w}, Padding: pad}}
				if err := sender.Send(e); err != nil {
					errc <- fmt.Errorf("writer %d send %d: %v", w, i, err)
					return
				}
			}
			errc <- nil
		}(w)
	}

	next := make([]int, writers)
	for n := 0; n < writers*perWriter; n++ {
		got, err := receiver.Recv()
		if err != nil {
			t.Fatalf("Recv #%d: %v", n, err)
		}
		p := got.Frame
		w := p.Frame.Width
		if w < 0 || w >= writers {
			t.Fatalf("mangled writer id %d", w)
		}
		if i := p.Frame.Index; i != next[w] {
			t.Fatalf("writer %d out of order: got %d, want %d", w, i, next[w])
		}
		next[w]++
		if len(p.Padding) != 512+w {
			t.Fatalf("interleaved frame from writer %d: pad=%d", w, len(p.Padding))
		}
		for _, v := range p.Padding {
			if v != byte(w) {
				t.Fatalf("writer %d padding corrupted", w)
			}
		}
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDecode feeds raw frames into the receive path: any input must either
// decode or fail with an error — never panic, never allocate unboundedly —
// and whatever decodes must re-encode to a byte-identical frame when sent
// again (the codec is canonical).
func FuzzDecode(f *testing.F) {
	for _, env := range hotEnvelopes() {
		var buf bytes.Buffer
		c := NewConn(pipeRWC{Reader: &bytes.Buffer{}, Writer: &buf})
		if err := c.Send(env); err != nil {
			f.Fatalf("seed Send(%s): %v", env.Kind, err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{tagBye, 0})
	f.Add([]byte{6, 3, 0, 0, 0}) // retired payload tag
	f.Add([]byte{7, 2, 9, 0})    // retired ack tag
	f.Add(gobControl(f, &Control{Seq: 1, Op: "ping"}))
	f.Add(gobControl(f, &ControlReply{Seq: 1, OK: true, Data: []byte("{}")}))
	f.Add([]byte{0xFF, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(pipeRWC{Reader: bytes.NewReader(data), Writer: &bytes.Buffer{}})
		env, err := c.Recv()
		if err != nil {
			return
		}
		// Canonical re-encode: send the decoded envelope and decode again.
		var buf bytes.Buffer
		out := NewConn(pipeRWC{Reader: &bytes.Buffer{}, Writer: &buf})
		if err := out.Send(env); err != nil {
			t.Fatalf("re-encode of decoded %s failed: %v", env.Kind, err)
		}
		back := NewConn(pipeRWC{Reader: &buf, Writer: &bytes.Buffer{}})
		env2, err := back.Recv()
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v", env.Kind, err)
		}
		if !reflect.DeepEqual(env, env2) {
			t.Fatalf("round trip not stable:\n first = %+v\n again = %+v", env, env2)
		}
	})
}

// gobControl frames a control message under the retired gob encoding —
// tag 9 (Control) or 10 (ControlReply), the body as its last encoder wrote
// it.
func gobControl(tb testing.TB, v any) []byte {
	tb.Helper()
	tag := byte(9)
	if _, ok := v.(*ControlReply); ok {
		tag = 10
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		tb.Fatalf("gob encode: %v", err)
	}
	msg := binary.AppendUvarint([]byte{tag}, uint64(body.Len()))
	return append(msg, body.Bytes()...)
}

// TestTagsPinned pins the numeric value of every wire tag — they are the
// protocol between binaries, append-only — and checks that the retired tags
// (6 and 7, the deleted switch's payload and ack; 9 and 10, the gob-encoded
// control channel; bodies as their last encoder wrote them) and the first
// unassigned tag are rejected with an error, not a panic and not a
// reinterpretation as another kind.
func TestTagsPinned(t *testing.T) {
	want := map[Kind]byte{
		KindFrame: 1, KindInitialReply: 2, KindFinalReply: 3,
		KindCloudRequest: 4, KindCloudResponse: 5,
		KindBye: 8, KindControl: 11, KindControlReply: 12,
	}
	if len(want) != len(allKinds) {
		t.Fatalf("%d kinds pinned, protocol has %d", len(want), len(allKinds))
	}
	for _, k := range allKinds {
		if tag, ok := tagOf(k); !ok || tag != want[k] {
			t.Errorf("kind %q has tag %d (ok=%v), want %d", k, tag, ok, want[k])
		}
	}
	for _, msg := range [][]byte{
		{6, 5, 1, 'p', 1, 0, 0}, // payload: path "p", seq 1, no padding, no trace
		{7, 2, 9, 0},            // ack: seq 9, no trace
		gobControl(t, &Control{Seq: 1, Op: "ping"}),
		gobControl(t, &ControlReply{Seq: 1, OK: true, Data: []byte("{}")}),
		{13, 0}, // first tag no binary has ever sent
	} {
		c := NewConn(pipeRWC{Reader: bytes.NewReader(msg), Writer: &bytes.Buffer{}})
		if env, err := c.Recv(); err == nil {
			t.Errorf("tag %d decoded as %q, want an error", msg[0], env.Kind)
		}
	}
}
