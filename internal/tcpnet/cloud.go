// Package tcpnet deploys the Croesus node logic over real TCP: a cloud
// server running the full model behind the fleet's SLO-aware validation
// batcher, edge servers running the shared fleet-node assembly (compact
// model, store, locks, MS-IA/MS-SR transactions) through the one core
// pipeline, and a client that streams frames. The node logic IS
// internal/core and internal/node — the same code the simulated fleet
// runs — against wall-clock time and real sockets;
// TimeScale compresses the modeled inference latencies so integration
// tests finish quickly.
package tcpnet

import (
	"errors"
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/obs"
	"croesus/internal/vclock"
	"croesus/internal/wire"
)

// CloudConfig assembles a cloud server.
type CloudConfig struct {
	// Model is the full cloud model shared by every connected edge.
	Model detect.Model
	// TimeScale multiplies modeled inference latency before sleeping
	// (1.0 = full fidelity; tests use ~0.01).
	TimeScale float64
	// MaxBatch, SLO, MaxPending, Slots, and CloudSpeed configure the
	// shared validation batcher (cluster.Batcher) that every edge's
	// requests coalesce into — the same batched, shedding cloud the
	// simulated fleet runs. Zero values take the fleet defaults
	// (batch 8, 60ms SLO, 4×batch pending cap).
	MaxBatch   int
	SLO        time.Duration
	MaxPending int
	Slots      int
	CloudSpeed float64
	// Obs, when set, threads the observability layer through the batcher:
	// queue-depth/inflight gauges, a batches counter, and batch spans on
	// the wall clock — what -debug-addr serves.
	Obs *obs.Obs
}

// CloudServer serves detection requests with the full model behind the
// fleet's shared SLO-aware batcher: requests from every connected edge
// coalesce into batches, flush on the size cap or the SLO deadline, and
// under overload the lowest-confidence-margin requests are shed back to
// their edges — Croesus' degradation mode over real sockets.
type CloudServer struct {
	Logf func(format string, args ...any)

	cfg     CloudConfig
	clk     vclock.Clock
	batcher *cluster.Batcher

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	handled int64
	shed    int64
	wg      sync.WaitGroup
}

// NewCloudServerWith returns a server on the full configuration.
func NewCloudServerWith(cfg CloudConfig) (*CloudServer, error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	clk := vclock.NewScaledReal(cfg.TimeScale)
	batcher, err := cluster.NewBatcher(cluster.BatcherConfig{
		Clock:      clk,
		Model:      cfg.Model,
		MaxBatch:   cfg.MaxBatch,
		SLO:        cfg.SLO,
		MaxPending: cfg.MaxPending,
		Slots:      cfg.Slots,
		CloudSpeed: cfg.CloudSpeed,
		Obs:        cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	return &CloudServer{
		Logf:    func(string, ...any) {},
		cfg:     cfg,
		clk:     clk,
		batcher: batcher,
		conns:   make(map[net.Conn]struct{}),
	}, nil
}

// Listen starts accepting on addr (e.g. ":9402" or "127.0.0.1:0") and
// returns the bound address.
func (s *CloudServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *CloudServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *CloudServer) serve(conn net.Conn) {
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
		case wire.KindBye:
			return
		case wire.KindCloudRequest:
			req := env.CloudRequest
			// Each request blocks in the shared batcher on its own
			// goroutine until its batch completes (or admission control
			// sheds it); replies serialize on the encoder.
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				start := time.Now()
				vreq := core.ValidationRequest{Frame: &req.Frame, Margin: req.Margin}
				// A traced request links this process into the frame's
				// trace: a cloud.request span child of the edge's
				// rpc.cloud span, and the batcher's queue/shed spans
				// hang off it in turn.
				var spanID uint64
				var t0 time.Duration
				o := s.cfg.Obs
				if o != nil && req.Trace != nil && req.Trace.Trace != 0 {
					spanID = obs.HashID("span", obs.U64(req.Trace.Trace), obs.SpanCloudRequest,
						obs.U64(uint64(req.FrameIndex)), obs.U64(uint64(req.Trace.Section)))
					vreq.Trace = obs.SpanContext{Trace: req.Trace.Trace, Span: spanID, Parent: req.Trace.Parent}
					t0 = s.clk.Now()
				}
				res := s.batcher.Validate(vreq)
				resp := &wire.CloudResponse{FrameIndex: req.FrameIndex, DetectTime: time.Since(start), Trace: req.Trace}
				if spanID != 0 {
					o.EmitSpan(obs.Span{
						Name: obs.SpanCloudRequest, Tags: obs.Tags("section", strconv.Itoa(req.Trace.Section)),
						Start: t0, End: s.clk.Now(),
						Trace: req.Trace.Trace, ID: spanID, Parent: req.Trace.Parent,
					})
				}
				if res.Status == core.Validated {
					resp.Labels = res.Cloud
					s.mu.Lock()
					s.handled++
					s.mu.Unlock()
				} else {
					resp.Shed = true
					s.mu.Lock()
					s.shed++
					s.mu.Unlock()
				}
				if err := wc.Send(&wire.Envelope{Kind: wire.KindCloudResponse, CloudResponse: resp}); err != nil {
					s.Logf("cloud: send response: %v", err)
				}
			}()
		default:
			s.Logf("cloud: unexpected message kind %q", env.Kind)
			return
		}
	}
}

// Handled reports how many frames the server has detected (shed requests
// excluded — see Shed).
func (s *CloudServer) Handled() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handled
}

// Shed reports how many requests admission control dropped.
func (s *CloudServer) Shed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed
}

// BatcherStats snapshots the shared validation batcher's counters —
// batches, mean/max batch size, shed count, flush waits.
func (s *CloudServer) BatcherStats() cluster.BatcherStats {
	return s.batcher.Stats()
}

// Close stops the listener and closes every connection.
func (s *CloudServer) Close() error {
	s.mu.Lock()
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// StdLogf returns a stderr logger for the deployment binaries.
func StdLogf(prefix string) func(string, ...any) {
	return func(format string, args ...any) {
		log.Printf(prefix+": "+format, args...)
	}
}
