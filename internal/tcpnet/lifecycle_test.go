package tcpnet

import (
	"net"
	"testing"
	"time"

	"croesus/internal/detect"
	"croesus/internal/video"
	"croesus/internal/wire"
)

// clientEntries counts the per-frame records a client still holds.
func clientEntries(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// sessionEntries counts the per-frame records an edge's connected sessions
// still hold.
func sessionEntries(s *EdgeServer) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ss := range s.conns {
		ss.mu.Lock()
		n += len(ss.frames)
		ss.mu.Unlock()
	}
	return n
}

// dialScripted connects a client to a scripted edge: the test reads the
// client's frames from the returned connection and decides which replies
// come back, and when.
func dialScripted(t *testing.T) (*Client, *wire.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept() // nil on failure
		accepted <- c
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := <-accepted
	if c == nil {
		t.Fatal("scripted edge accepted no connection")
	}
	edge := wire.NewConn(c)
	t.Cleanup(func() {
		client.Close()
		edge.Close()
	})
	return client, edge
}

// submitScripted submits frame idx and reads it off the scripted edge.
func submitScripted(t *testing.T, client *Client, edge *wire.Conn, idx int) {
	t.Helper()
	f := video.NewGenerator(video.StreetVehicles(), 3).Generate(1)[0]
	f.Index = idx
	if err := client.Submit(f, 512); err != nil {
		t.Fatalf("submit %d: %v", idx, err)
	}
	env, err := edge.Recv()
	if err != nil || env.Kind != wire.KindFrame || env.Frame.Frame.Index != idx {
		t.Fatalf("scripted edge read %+v, %v; want frame %d", env, err, idx)
	}
}

// replyScripted sends both commit replies for frame idx.
func replyScripted(t *testing.T, edge *wire.Conn, idx int) {
	t.Helper()
	labels := []detect.Detection{{Label: "car", Confidence: 0.9}}
	if err := edge.Send(&wire.Envelope{Kind: wire.KindInitialReply, InitialReply: &wire.InitialReply{FrameIndex: idx, Labels: labels}}); err != nil {
		t.Fatal(err)
	}
	if err := edge.Send(&wire.Envelope{Kind: wire.KindFinalReply, FinalReply: &wire.FinalReply{FrameIndex: idx, Labels: labels}}); err != nil {
		t.Fatal(err)
	}
}

// TestLateReplyLeavesNothingBehind: a frame whose wait timed out is
// forgotten, and its replies, arriving afterwards, are dropped rather than
// re-creating a record. The racing phase has the read loop complete frames
// while their waits time out.
func TestLateReplyLeavesNothingBehind(t *testing.T) {
	client, edge := dialScripted(t)

	submitScripted(t, client, edge, 0)
	if _, err := client.WaitFrame(0, time.Millisecond); err == nil {
		t.Fatal("frame 0 was answered before any reply was sent")
	}
	replyScripted(t, edge, 0) // late: nobody waits for frame 0 any more

	// Replies come back in order on the one connection, so once frame 1
	// is answered the read loop has handled frame 0's late replies.
	submitScripted(t, client, edge, 1)
	replyScripted(t, edge, 1)
	r, err := client.WaitFrame(1, 10*time.Second)
	if err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if r.FrameIndex != 1 || len(r.Initial) != 1 || len(r.Final) != 1 {
		t.Errorf("frame 1 result %+v, want both replies' labels", r)
	}
	if n := clientEntries(client); n != 0 {
		t.Fatalf("client holds %d per-frame entries after a late reply, want 0", n)
	}

	// Racing phase: each frame is answered at once and waited with a
	// timeout short enough to lose the race about as often as it wins it.
	const racing = 200
	lost := 0
	for i := 2; i < 2+racing; i++ {
		submitScripted(t, client, edge, i)
		replyScripted(t, edge, i)
		r, err := client.WaitFrame(i, time.Duration(i%5)*20*time.Microsecond)
		switch {
		case err != nil:
			lost++
		case r.FrameIndex != i:
			t.Fatalf("frame %d: result for frame %d", i, r.FrameIndex)
		}
	}
	t.Logf("%d of %d racing waits timed out", lost, racing)
	last := 2 + racing
	submitScripted(t, client, edge, last)
	replyScripted(t, edge, last)
	if _, err := client.WaitFrame(last, 10*time.Second); err != nil {
		t.Fatalf("frame %d: %v", last, err)
	}
	if n := clientEntries(client); n != 0 {
		t.Errorf("client holds %d per-frame entries after %d racing waits, want 0", n, racing)
	}
}

// TestWaitFrameTwiceFails: WaitFrame forgets the frame it returns, so a
// second wait on it is an error, not the same result again.
func TestWaitFrameTwiceFails(t *testing.T) {
	client, edge := dialScripted(t)
	submitScripted(t, client, edge, 7)
	replyScripted(t, edge, 7)
	if _, err := client.WaitFrame(7, 10*time.Second); err != nil {
		t.Fatalf("first wait: %v", err)
	}
	if r, err := client.WaitFrame(7, 10*time.Millisecond); err == nil {
		t.Errorf("second wait on frame 7 returned %+v, want an error", r)
	}
	if n := clientEntries(client); n != 0 {
		t.Errorf("client holds %d per-frame entries, want 0", n)
	}
}
