package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"croesus/internal/detect"
	"croesus/internal/obs"
	"croesus/internal/vclock"
	"croesus/internal/video"
	"croesus/internal/wire"
)

// FrameResult collects the two responses for one submitted frame.
type FrameResult struct {
	FrameIndex  int
	Initial     []detect.Detection
	Final       []detect.Detection
	SentToCloud bool
	Corrections int
	Apologies   []string
	// Shed reports that the cloud's admission control dropped this frame's
	// validation; the final labels are the edge's own.
	Shed           bool
	InitialLatency time.Duration // submit → initial reply received
	FinalLatency   time.Duration // submit → final reply received
}

// Client streams frames to an edge server and collects both commit
// responses per frame. It keeps one record per frame in flight, from Submit
// until WaitFrame, so its memory follows the in-flight window and not the
// number of frames sent: wait each submitted frame exactly once.
type Client struct {
	conn *wire.Conn

	mu      sync.Mutex
	pending map[int]*pending
	pad     []byte // zeros, shared by every Submit; replaced, never written, when it grows
	readErr error

	// Tracing (EnableTrace): the client opens each frame's trace and
	// records a client.frame span covering submit → final reply.
	o    *obs.Obs
	oclk vclock.Clock
	cam  string
}

// pending is one in-flight frame: what the read loop fills in and what
// WaitFrame hands back. Fields are guarded by Client.mu.
type pending struct {
	res    FrameResult
	start  time.Time     // wall-clock submit time
	traceT time.Duration // trace-clock submit time (tracing only)
	final  bool          // the final reply arrived; done is closed
	done   chan struct{}
}

// Dial connects to the edge server.
func Dial(addr string) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cl := &Client{conn: wire.NewConn(c), pending: make(map[int]*pending)}
	go cl.readLoop()
	return cl, nil
}

// EnableTrace attaches an observability layer: every frame submitted
// afterwards opens a distributed trace whose ID is a deterministic hash
// of cam and the frame index, the frame's wire message carries the
// context so the edge (and through it the cloud) joins the same trace,
// and a client.frame root span covering submit → final reply is recorded
// on clk. Call before Submit; not concurrent-safe with in-flight frames.
func (c *Client) EnableTrace(o *obs.Obs, clk vclock.Clock, cam string) {
	c.mu.Lock()
	c.o, c.oclk, c.cam = o, clk, cam
	c.mu.Unlock()
}

// traceIDs derives the frame's trace and client-root span IDs.
func (c *Client) traceIDs(idx int) (trace, root uint64) {
	trace = obs.HashID("trace", c.cam, obs.U64(uint64(idx)))
	return trace, obs.HashID("span", obs.U64(trace), obs.SpanClientFrame)
}

// readLoop fills in the records of frames in flight. A reply for a frame
// no longer tracked (its wait timed out) is dropped.
func (c *Client) readLoop() {
	for {
		env, err := c.conn.Recv()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for _, p := range c.pending {
				if !p.final {
					close(p.done)
				}
			}
			c.mu.Unlock()
			return
		}
		switch env.Kind {
		case wire.KindInitialReply:
			r := env.InitialReply
			c.mu.Lock()
			if p := c.pending[r.FrameIndex]; p != nil {
				p.res.Initial = r.Labels
				p.res.SentToCloud = r.SentToCloud
				p.res.InitialLatency = time.Since(p.start)
			}
			c.mu.Unlock()
		case wire.KindFinalReply:
			r := env.FinalReply
			c.mu.Lock()
			if p := c.pending[r.FrameIndex]; p != nil && !p.final {
				p.res.Final = r.Labels
				p.res.Corrections = r.Corrections
				p.res.Apologies = r.Apologies
				p.res.Shed = r.Shed
				p.res.FinalLatency = time.Since(p.start)
				if c.o != nil {
					trace, root := c.traceIDs(r.FrameIndex)
					c.o.EmitSpan(obs.Span{
						Name: obs.SpanClientFrame, Tags: obs.Tags("camera", c.cam),
						Start: p.traceT, End: c.oclk.Now(),
						Trace: trace, ID: root,
					})
				}
				p.final = true
				close(p.done)
			}
			c.mu.Unlock()
		}
	}
}

// Submit sends one frame; the result arrives asynchronously and is
// collected, once, by WaitFrame. padding zero bytes ride along to size the
// frame on the wire.
func (c *Client) Submit(f *video.Frame, padding int) error {
	p := &pending{res: FrameResult{FrameIndex: f.Index}, done: make(chan struct{})}
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return err
	}
	p.start = time.Now()
	c.pending[f.Index] = p
	var tc *wire.TraceCtx
	if c.o != nil {
		trace, root := c.traceIDs(f.Index)
		p.traceT = c.oclk.Now()
		tc = &wire.TraceCtx{Trace: trace, Parent: root}
	}
	var pad []byte
	if padding > 0 {
		if len(c.pad) < padding {
			c.pad = make([]byte, padding)
		}
		pad = c.pad[:padding]
	}
	c.mu.Unlock()

	// Send copies pad into its encode buffer before it returns.
	return c.conn.Send(&wire.Envelope{Kind: wire.KindFrame, Frame: &wire.Frame{Frame: *f, Padding: pad, Trace: tc}})
}

// WaitFrame blocks until the frame's final reply arrives (or the
// connection fails / the timeout expires) and returns its result. It
// forgets the frame whatever the outcome, so each submitted frame is waited
// once: a second WaitFrame on it returns an error, and a reply arriving
// after a timeout is dropped.
func (c *Client) WaitFrame(idx int, timeout time.Duration) (*FrameResult, error) {
	c.mu.Lock()
	p := c.pending[idx]
	c.mu.Unlock()
	if p == nil {
		return nil, fmt.Errorf("tcpnet: frame %d was never submitted or was already waited", idx)
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-p.done:
	case <-t.C:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[idx] != p {
		return nil, fmt.Errorf("tcpnet: frame %d was already waited", idx)
	}
	delete(c.pending, idx)
	switch {
	case p.final:
		r := p.res
		return &r, nil
	case c.readErr != nil:
		// A dead connection wakes every waiter; a frame whose final reply
		// never arrived reports the connection error, not a partial result.
		return nil, c.readErr
	default:
		return nil, fmt.Errorf("tcpnet: frame %d timed out after %v", idx, timeout)
	}
}

// Close says goodbye and closes the connection.
func (c *Client) Close() error {
	c.conn.Send(&wire.Envelope{Kind: wire.KindBye})
	return c.conn.Close()
}
