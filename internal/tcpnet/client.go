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
// responses per frame.
type Client struct {
	conn *wire.Conn

	mu      sync.Mutex
	started map[int]time.Time
	results map[int]*FrameResult
	done    map[int]chan struct{}
	readErr error

	// Tracing (EnableTrace): the client opens each frame's trace and
	// records a client.frame span covering submit → final reply.
	o      *obs.Obs
	oclk   vclock.Clock
	cam    string
	traceT map[int]time.Duration // trace-clock submit times
}

// Dial connects to the edge server.
func Dial(addr string) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		conn:    wire.NewConn(c),
		started: make(map[int]time.Time),
		results: make(map[int]*FrameResult),
		done:    make(map[int]chan struct{}),
	}
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
	c.traceT = make(map[int]time.Duration)
	c.mu.Unlock()
}

// traceIDs derives the frame's trace and client-root span IDs.
func (c *Client) traceIDs(idx int) (trace, root uint64) {
	trace = obs.HashID("trace", c.cam, obs.U64(uint64(idx)))
	return trace, obs.HashID("span", obs.U64(trace), obs.SpanClientFrame)
}

func (c *Client) readLoop() {
	for {
		env, err := c.conn.Recv()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for _, ch := range c.done {
				select {
				case <-ch:
				default:
					close(ch)
				}
			}
			c.mu.Unlock()
			return
		}
		switch env.Kind {
		case wire.KindInitialReply:
			r := env.InitialReply
			c.mu.Lock()
			fr := c.result(r.FrameIndex)
			fr.Initial = r.Labels
			fr.SentToCloud = r.SentToCloud
			fr.InitialLatency = time.Since(c.started[r.FrameIndex])
			c.mu.Unlock()
		case wire.KindFinalReply:
			r := env.FinalReply
			c.mu.Lock()
			fr := c.result(r.FrameIndex)
			fr.Final = r.Labels
			fr.Corrections = r.Corrections
			fr.Apologies = r.Apologies
			fr.Shed = r.Shed
			fr.FinalLatency = time.Since(c.started[r.FrameIndex])
			if c.o != nil {
				if t0, ok := c.traceT[r.FrameIndex]; ok {
					delete(c.traceT, r.FrameIndex)
					trace, root := c.traceIDs(r.FrameIndex)
					c.o.EmitSpan(obs.Span{
						Name: obs.SpanClientFrame, Tags: obs.Tags("camera", c.cam),
						Start: t0, End: c.oclk.Now(),
						Trace: trace, ID: root,
					})
				}
			}
			if ch, ok := c.done[r.FrameIndex]; ok {
				close(ch)
			}
			c.mu.Unlock()
		}
	}
}

// result returns (creating if needed) the record for a frame. Callers hold
// c.mu.
func (c *Client) result(idx int) *FrameResult {
	fr, ok := c.results[idx]
	if !ok {
		fr = &FrameResult{FrameIndex: idx}
		c.results[idx] = fr
	}
	return fr
}

// Submit sends one frame; the result arrives asynchronously.
func (c *Client) Submit(f *video.Frame, padding int) error {
	ch := make(chan struct{})
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return err
	}
	c.started[f.Index] = time.Now()
	c.done[f.Index] = ch
	var tc *wire.TraceCtx
	if c.o != nil {
		trace, root := c.traceIDs(f.Index)
		c.traceT[f.Index] = c.oclk.Now()
		tc = &wire.TraceCtx{Trace: trace, Parent: root}
	}
	c.mu.Unlock()

	var pad []byte
	if padding > 0 {
		pad = make([]byte, padding)
	}
	return c.conn.Send(&wire.Envelope{Kind: wire.KindFrame, Frame: &wire.Frame{Frame: *f, Padding: pad, Trace: tc}})
}

// WaitFrame blocks until the frame's final reply arrives (or the
// connection fails / the timeout expires) and returns its result.
func (c *Client) WaitFrame(idx int, timeout time.Duration) (*FrameResult, error) {
	c.mu.Lock()
	ch, ok := c.done[idx]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tcpnet: frame %d was never submitted", idx)
	}
	select {
	case <-ch:
	case <-time.After(timeout):
		return nil, fmt.Errorf("tcpnet: frame %d timed out after %v", idx, timeout)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// A dead connection wakes every waiter; a frame whose final reply
	// never arrived (possibly never any reply — r is nil) reports the
	// connection error, not a partial result.
	r := c.results[idx]
	if c.readErr != nil && (r == nil || r.Final == nil) {
		return nil, c.readErr
	}
	if r == nil {
		return nil, fmt.Errorf("tcpnet: frame %d has no result", idx)
	}
	return r, nil
}

// Close says goodbye and closes the connection.
func (c *Client) Close() error {
	c.conn.Send(&wire.Envelope{Kind: wire.KindBye})
	return c.conn.Close()
}
