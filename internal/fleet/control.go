// Package fleet is the multi-process deployment of the Croesus
// reproduction: an orchestrator (cmd/croesus-fleet) that reads the same
// versioned scenario JSON as croesus-cluster, runs it against *real*
// croesus-edge / croesus-cloud / croesus-client processes, plays the
// timeline over a control channel on each process, and folds the
// per-process reports and trace streams into one cluster.ClusterReport.
//
// The package splits into these seams:
//
//   - control.go — the control protocol: a tiny request/reply RPC carried
//     by wire.Control / wire.ControlReply envelopes in the same binary
//     codec as the data plane. Every fleet binary serves it (handlers.go);
//     the orchestrator drives it.
//   - camstream.go — croesus-client's camera streaming loop: pacing,
//     reconnect across edge crashes, live rate shifts and redials.
//   - procs.go — process management: spawn with ready-file address
//     discovery, SIGKILL crashes, respawns, graceful SIGTERM stops.
//   - cams.go — the orchestrator's handle on one spawned croesus-client.
//   - fleet.go — the orchestrator: scenario validation for the
//     multi-process fleet, timeline playback, report merge (report.go),
//     trace collection.
package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"croesus/internal/wire"
)

// Control ops. The operand fields of wire.Control each op reads are noted.
const (
	// OpPing answers with the process's role in Data ({"role": ...}).
	OpPing = "ping"
	// OpReport answers with the role-specific report JSON in Data
	// (EdgeReport, CloudReport, or ClientReport).
	OpReport = "report"
	// OpDrain (edge) makes the edge refuse new frames (Down=false heals).
	OpDrain = "drain"
	// OpLink (edge) blackholes or heals one modeled path: Path is
	// "client" or "cloud", Down the new state.
	OpLink = "link"
	// OpRate (client) scales the camera's capture rate by Rate.
	OpRate = "rate"
	// OpRedial (client) points the camera at a new edge: Addr.
	OpRedial = "redial"
	// OpCheckpoint (edge) compacts the WAL to a state snapshot.
	OpCheckpoint = "checkpoint"
	// OpVerify (edge) checks the durability invariant (WAL replay ==
	// live store); Data carries {"records": n}.
	OpVerify = "verify"
	// OpQuit asks the process to shut down gracefully after replying.
	OpQuit = "quit"
)

// OpFunc handles one control op. The returned value is JSON-encoded into
// the reply's Data (nil: empty Data).
type OpFunc func(c wire.Control) (any, error)

// Handler dispatches control ops to registered functions.
type Handler struct {
	mu  sync.Mutex
	ops map[string]OpFunc
}

// NewHandler returns an empty handler with a default ping.
func NewHandler(role string) *Handler {
	h := &Handler{ops: map[string]OpFunc{}}
	h.On(OpPing, func(wire.Control) (any, error) {
		return map[string]string{"role": role}, nil
	})
	return h
}

// On registers fn for op, replacing any previous registration.
func (h *Handler) On(op string, fn OpFunc) {
	h.mu.Lock()
	h.ops[op] = fn
	h.mu.Unlock()
}

// Handle runs one op and builds the reply envelope.
func (h *Handler) Handle(c wire.Control) wire.ControlReply {
	h.mu.Lock()
	fn, ok := h.ops[c.Op]
	h.mu.Unlock()
	r := wire.ControlReply{Seq: c.Seq}
	if !ok {
		r.Err = fmt.Sprintf("unknown control op %q", c.Op)
		return r
	}
	data, err := fn(c)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.OK = true
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return wire.ControlReply{Seq: c.Seq, Err: err.Error()}
		}
		r.Data = b
	}
	return r
}

// ControlServer accepts control connections and serves a Handler.
type ControlServer struct {
	ln net.Listener
	h  *Handler
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
}

// ServeControl listens on addr (host:0 allocates a port) and serves h on
// every connection. Returns the server; Addr() reports the bound address.
func ServeControl(addr string, h *Handler) (*ControlServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &ControlServer{ln: ln, h: h, conns: map[net.Conn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr is the bound listen address.
func (s *ControlServer) Addr() string { return s.ln.Addr().String() }

func (s *ControlServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *ControlServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	wc := wire.NewConn(conn)
	for {
		env, err := wc.Recv()
		if err != nil {
			return
		}
		switch env.Kind {
		case wire.KindControl:
			reply := s.h.Handle(*env.Control)
			if err := wc.Send(&wire.Envelope{Kind: wire.KindControlReply, ControlReply: &reply}); err != nil {
				return
			}
			// A quit that was acknowledged ends the connection: the
			// process is about to exit and the orchestrator should not
			// block on a dead socket.
			if env.Control.Op == OpQuit && reply.OK {
				return
			}
		case wire.KindBye:
			return
		}
	}
}

// Close stops accepting, severs live connections, and waits for the
// serving goroutines.
func (s *ControlServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// ControlClient is the orchestrator's end of one process's control
// channel. Calls are serialized; each Call round-trips one op.
type ControlClient struct {
	mu   sync.Mutex
	conn *wire.Conn
	nc   net.Conn
	seq  uint64
}

// DialControl connects to a process's control address.
func DialControl(addr string) (*ControlClient, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &ControlClient{conn: wire.NewConn(nc), nc: nc}, nil
}

// Call round-trips one control op with a deadline (0: 10s default). The
// returned reply is the remote verdict; err is a transport failure.
func (c *ControlClient) Call(ctl wire.Control, timeout time.Duration) (*wire.ControlReply, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	ctl.Seq = c.seq
	c.nc.SetDeadline(time.Now().Add(timeout))
	defer c.nc.SetDeadline(time.Time{})
	if err := c.conn.Send(&wire.Envelope{Kind: wire.KindControl, Control: &ctl}); err != nil {
		return nil, err
	}
	for {
		env, err := c.conn.Recv()
		if err != nil {
			return nil, err
		}
		if env.Kind != wire.KindControlReply || env.ControlReply == nil {
			continue
		}
		if env.ControlReply.Seq != ctl.Seq {
			continue // stale reply from an abandoned deadline
		}
		return env.ControlReply, nil
	}
}

// CallOK round-trips op and converts a remote error into a Go error.
func (c *ControlClient) CallOK(ctl wire.Control, timeout time.Duration) (*wire.ControlReply, error) {
	r, err := c.Call(ctl, timeout)
	if err != nil {
		return nil, err
	}
	if !r.OK {
		return r, fmt.Errorf("control %s: %s", ctl.Op, r.Err)
	}
	return r, nil
}

// CallJSON round-trips op and decodes the reply Data into out (which may
// be nil to ignore it).
func (c *ControlClient) CallJSON(ctl wire.Control, timeout time.Duration, out any) error {
	r, err := c.CallOK(ctl, timeout)
	if err != nil {
		return err
	}
	if out != nil && len(r.Data) > 0 {
		return json.Unmarshal(r.Data, out)
	}
	return nil
}

// Close sends a best-effort bye and closes the connection.
func (c *ControlClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nc.SetDeadline(time.Now().Add(time.Second))
	c.conn.Send(&wire.Envelope{Kind: wire.KindBye})
	return c.nc.Close()
}
