package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/netsim"
	"croesus/internal/node"
	"croesus/internal/obs"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
	"croesus/internal/wire"
)

// EdgeConfig assembles an edge server.
type EdgeConfig struct {
	EdgeModel detect.Model
	CloudAddr string // cloud server address; empty disables validation
	// TimeScale compresses modeled inference latencies (1.0 = full
	// fidelity; tests use ~0.01). The server runs on a scaled wall clock,
	// so the one pipeline implementation drives it unchanged.
	TimeScale float64
	// Thresholds for bandwidth thresholding (§3.4).
	ThetaL, ThetaU float64
	MinConfidence  float64
	OverlapMin     float64
	// Protocol selects the multi-stage protocol: twopc.MSIA (default) or
	// twopc.MSSR — the same selection a fleet edge makes.
	Protocol twopc.Protocol
	// Graph, when set, runs every client session over that inference
	// graph instead of the two-stage one: edge-tier nodes run their models
	// in this server's compute pool, cloud-tier nodes ship the frame over
	// the real cloud socket (wire.CloudRequest.Section names the hop's
	// section). A standalone edge has no peer mesh, so peer-tier nodes are
	// rejected.
	Graph *node.GraphSpec
	// Slots bounds concurrent edge inferences across every connected
	// client (default core.DefaultEdgeSlots, as on a simulated edge) — the
	// server's compute pool.
	Slots int
	// Source supplies the per-detection transactions; nil runs the
	// detection pipeline without a database.
	Source core.TxnSource
	Logf   func(format string, args ...any)
	// Obs, when set, threads the observability layer through every client
	// session's pipeline and the transaction manager: per-stage spans on
	// the wall clock plus fleet counters, latency histograms, and the
	// inference-queue-depth gauge — what -debug-addr serves. A durable edge
	// adds a sim partition's series: WAL appends and the commit counters.
	Obs *obs.Obs
	// EdgeID tags this server's metrics and spans (default "edge").
	EdgeID string
	// WALPath, when set, makes the edge durable: it runs as a fleet of one
	// twopc.Partition logging to this file (node.NewDurable), committing
	// through twopc.ShardedCC like a simulated durable partition, so each
	// section boundary logs its writes plus a commit marker in one batch.
	// On startup any existing log is replayed into the store first: a
	// SIGKILLed edge respawned on the same path recovers its committed
	// state, and never half a section between checkpoints (a checkpoint
	// snapshots running sections' uncommitted writes too; ROADMAP item
	// 10).
	WALPath string
	// WALNoSync skips the per-append fsync. Process-crash durability is
	// unaffected (the bytes are in the page cache); only a machine crash
	// could lose the tail.
	WALNoSync bool
	// ClientEdgeShape and EdgeCloudShape, when set, inject the modeled
	// link profiles into the real hops: every ingested frame pays the
	// client→edge link's time and every validation round trip the
	// edge→cloud link's, shaped on the server's scaled clock — so a
	// multi-process deployment's latency distribution is comparable
	// like-for-like with the sim's. Nil leaves the hops at socket speed.
	ClientEdgeShape *transport.Shaper
	EdgeCloudShape  *transport.Shaper
}

// EdgeServer is the edge node of the real multi-process deployment. It is
// assembled from the same pieces as a fleet edge: the shared node
// assembly (store, locks, transaction manager, MS-IA or MS-SR concurrency
// control) and the core pipeline — the one Figure-1 execution — driven
// per frame over real sockets. The client socket replaces the modeled
// client→edge path and a cloud connection replaces the modeled uplink
// (both transport.Null in the pipeline, so nothing is double-charged);
// the cloud side is the batched, shedding validator, so overload degrades
// to edge answers exactly as in the simulated fleet.
type EdgeServer struct {
	cfg        EdgeConfig
	clk        vclock.Clock
	asm        *node.Assembly
	graph      *core.Graph // what every session walks; cloud-tier nodes are bound per session
	compute    *vclock.Semaphore
	queueDepth *obs.Gauge // shared across sessions: one compute pool, one gauge

	// clientPath and cloudPath are the server's modeled network seams,
	// shared across every session exactly as a fleet edge shares its
	// links: the pipeline charges ingest/return hops on clientPath, and
	// validation round trips ship over cloudPath. Unshaped they cost
	// nothing, but they remain the severing point for orchestrator-driven
	// per-path blackholes (the fleet's link_fault).
	clientPath *transport.ShapedPath
	cloudPath  *transport.ShapedPath

	replayed int // WAL records replayed at startup

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	served   int64
	shed     int64
	dropped  int64 // frames refused by drain or a severed client path
	wg       sync.WaitGroup
}

// NewEdgeServer builds an edge server; the data stack is the shared
// fleet-node assembly on a scaled wall clock. It rejects the
// configurations scenario.Validate rejects for a simulated edge.
func NewEdgeServer(cfg EdgeConfig) (*EdgeServer, error) {
	if cfg.EdgeModel == nil {
		return nil, fmt.Errorf("tcpnet: EdgeModel is required")
	}
	if cfg.Slots < 0 {
		return nil, fmt.Errorf("tcpnet: Slots %d must be ≥ 0 (0 takes the default)", cfg.Slots)
	}
	if cfg.ThetaL > cfg.ThetaU {
		return nil, fmt.Errorf("tcpnet: thresholds must satisfy θL ≤ θU, got (%.2f, %.2f)", cfg.ThetaL, cfg.ThetaU)
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.MinConfidence == 0 {
		cfg.MinConfidence = 0.05
	}
	if cfg.OverlapMin == 0 {
		cfg.OverlapMin = 0.10
	}
	if cfg.Slots == 0 {
		cfg.Slots = core.DefaultEdgeSlots
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.EdgeID == "" {
		cfg.EdgeID = "edge"
	}
	clk := vclock.NewScaledReal(cfg.TimeScale)
	s := &EdgeServer{
		cfg:     cfg,
		clk:     clk,
		compute: vclock.NewSemaphore(clk, cfg.Slots),
		conns:   make(map[net.Conn]struct{}),
	}
	if cfg.WALPath == "" {
		s.asm = node.New(clk, cfg.Protocol)
	} else {
		asm, res, err := node.NewDurable(clk, cfg.Protocol, cfg.WALPath, cfg.WALNoSync)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: wal: %w", err)
		}
		if res.Truncated {
			cfg.Logf("edge: wal %s had a truncated tail (dropped)", cfg.WALPath)
		}
		s.asm, s.replayed = asm, res.Records
	}
	s.clientPath = transport.NewShapedPath(cfg.ClientEdgeShape, clk)
	s.cloudPath = transport.NewShapedPath(cfg.EdgeCloudShape, clk)
	if cfg.Obs != nil {
		s.queueDepth = cfg.Obs.Gauge(obs.MetricEdgeQueueDepth, obs.Tags("edge", cfg.EdgeID))
		s.asm.Observe(cfg.Obs, cfg.EdgeID)
	}
	if cfg.Graph != nil {
		// One standalone edge: the graph validates against a fleet of 1,
		// which rejects peer-tier nodes. Cloud-tier models compile but run
		// remotely; the fixed seed only feeds the extra edge-tier models.
		g, err := cfg.Graph.Compile(1, 42)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: %w", err)
		}
		s.graph = g
		if ps, ok := cfg.Source.(interface{ SetPlan([]txn.SectionSpec) }); ok && g != nil {
			ps.SetPlan(g.SectionPlan())
		}
	}
	if s.graph == nil {
		s.graph = core.ModeCroesus.Graph(cfg.ThetaU, nil)
	}
	return s, nil
}

// Manager exposes the transaction manager (for inspection in tests).
func (s *EdgeServer) Manager() *txn.Manager { return s.asm.Mgr }

// Listen starts accepting client connections and returns the bound address.
func (s *EdgeServer) Listen(addr string) (string, error) {
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

func (s *EdgeServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
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
		go s.serveClient(conn)
	}
}

// cloudSession multiplexes cloud requests over one connection.
type cloudSession struct {
	conn    *wire.Conn
	mu      sync.Mutex
	pending map[int]chan *wire.CloudResponse
	err     error
}

func dialCloud(addr string) (*cloudSession, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cs := &cloudSession{
		conn:    wire.NewConn(c),
		pending: make(map[int]chan *wire.CloudResponse),
	}
	go cs.readLoop()
	return cs, nil
}

func (cs *cloudSession) readLoop() {
	for {
		env, err := cs.conn.Recv()
		if err != nil {
			cs.mu.Lock()
			cs.err = err
			for _, ch := range cs.pending {
				close(ch)
			}
			cs.pending = make(map[int]chan *wire.CloudResponse)
			cs.mu.Unlock()
			return
		}
		if env.Kind != wire.KindCloudResponse {
			continue
		}
		cs.mu.Lock()
		ch, ok := cs.pending[env.CloudResponse.FrameIndex]
		if ok {
			delete(cs.pending, env.CloudResponse.FrameIndex)
		}
		cs.mu.Unlock()
		if ok {
			ch <- env.CloudResponse
			close(ch)
		}
	}
}

// validate sends the frame for cloud detection and waits for the reply.
func (cs *cloudSession) validate(req *wire.CloudRequest) (*wire.CloudResponse, error) {
	ch := make(chan *wire.CloudResponse, 1)
	cs.mu.Lock()
	if cs.err != nil {
		cs.mu.Unlock()
		return nil, cs.err
	}
	cs.pending[req.FrameIndex] = ch
	cs.mu.Unlock()

	if err := cs.conn.Send(&wire.Envelope{Kind: wire.KindCloudRequest, CloudRequest: req}); err != nil {
		return nil, err
	}
	resp, ok := <-ch
	if !ok {
		return nil, fmt.Errorf("tcpnet: cloud connection lost")
	}
	return resp, nil
}

func (cs *cloudSession) close() {
	cs.conn.Send(&wire.Envelope{Kind: wire.KindBye})
	cs.conn.Close()
}

// session is one client connection: its own pipeline instance (bound to
// the server's shared assembly and compute pool) plus the reply plumbing.
// It implements core.Validator over the cloud connection, so the pipeline's
// cloud-tier nodes are real socket round trips.
type session struct {
	srv   *EdgeServer
	wc    *wire.Conn
	cloud *cloudSession
	pipe  *core.Pipeline

	mu      sync.Mutex
	started map[int]time.Time
	padding map[int][]byte
	traces  map[int]*wire.TraceCtx // per-frame wire trace context (tracing only)
}

func (s *EdgeServer) serveClient(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sess := &session{
		srv:     s,
		wc:      wire.NewConn(conn),
		started: make(map[int]time.Time),
		padding: make(map[int][]byte),
		traces:  make(map[int]*wire.TraceCtx),
	}
	if s.cfg.CloudAddr != "" {
		cloud, err := dialCloud(s.cfg.CloudAddr)
		if err != nil {
			s.cfg.Logf("edge: dial cloud %s: %v", s.cfg.CloudAddr, err)
			return
		}
		sess.cloud = cloud
		defer cloud.close()
	}
	pipe, err := s.buildPipeline(sess)
	if err != nil {
		s.cfg.Logf("edge: pipeline: %v", err)
		return
	}
	sess.pipe = pipe

	var frameWG sync.WaitGroup
	defer frameWG.Wait()
	for {
		env, err := sess.wc.Recv()
		if err != nil {
			return
		}
		switch env.Kind {
		case wire.KindBye:
			return
		case wire.KindFrame:
			f := env.Frame
			frameWG.Add(1)
			go func() {
				defer frameWG.Done()
				sess.handleFrame(f)
			}()
		default:
			s.cfg.Logf("edge: unexpected kind %q", env.Kind)
			return
		}
	}
}

// buildPipeline assembles the shared Figure-1 pipeline for one client
// connection. The client socket already delivered the frame and the cloud
// socket carries validation traffic, so the pipeline must not charge real
// links on top: ClientEdge is the server's shared shaped seam (zero-cost
// unshaped, the modeled link's time when shaping is on) and EdgeCloud is
// Null — the cloud hop is shaped inside the session's Validate, where the
// real round trip happens. Every cloud-tier node of the server's graph is
// answered by this session's cloud connection.
func (s *EdgeServer) buildPipeline(sess *session) (*core.Pipeline, error) {
	graph := &core.Graph{Nodes: append([]core.GraphNode(nil), s.graph.Nodes...)}
	for k := range graph.Nodes {
		if graph.Nodes[k].Tier == txn.TierCloud {
			graph.Nodes[k].Validator = sess
		}
	}
	cfg := core.Config{
		Clock:         s.clk,
		EdgeModel:     s.cfg.EdgeModel,
		EdgeCompute:   s.compute,
		ClientEdge:    s.clientPath,
		EdgeCloud:     transport.Null{},
		MinConfidence: s.cfg.MinConfidence,
		ThetaL:        s.cfg.ThetaL,
		ThetaU:        s.cfg.ThetaU,
		OverlapMin:    s.cfg.OverlapMin,
		Graph:         graph,
		OnInitial:     sess.onInitial,
		Obs:           s.cfg.Obs,
		TagKV:         []string{"edge", s.cfg.EdgeID, "protocol", s.cfg.Protocol.String()},
		QueueDepth:    s.queueDepth,
	}
	if s.cfg.Obs != nil {
		cfg.SpanCtx = sess.spanCtx
	}
	if s.cfg.Source != nil {
		cfg.Source = s.cfg.Source
		cfg.CC = s.asm.CC
		cfg.Mgr = s.asm.Mgr
	}
	return core.New(cfg)
}

// spanCtx is the pipeline's per-frame trace hook: the frame joins the
// client's trace when the wire message carried one, otherwise the edge
// opens its own. The frame-root span ID is a deterministic hash, so the
// client's echoed replies and the cloud's child spans agree on it
// without coordination.
func (ss *session) spanCtx(f *video.Frame) obs.SpanContext {
	ss.mu.Lock()
	tc := ss.traces[f.Index]
	ss.mu.Unlock()
	if tc != nil && tc.Trace != 0 {
		return obs.SpanContext{
			Trace:  tc.Trace,
			Span:   obs.HashID("span", obs.U64(tc.Trace), obs.SpanFrameRoot),
			Parent: tc.Parent,
		}
	}
	trace := obs.HashID("trace", ss.srv.cfg.EdgeID, obs.U64(uint64(f.Index)))
	return obs.SpanContext{Trace: trace, Span: obs.HashID("span", obs.U64(trace), obs.SpanFrameRoot)}
}

// rpcSpanID names the edge-side rpc.cloud span for one frame's section-k
// cloud hop; the cloud's cloud.request span points at it as parent.
func rpcSpanID(trace uint64, frameIdx, section int) uint64 {
	return obs.HashID("span", obs.U64(trace), obs.SpanRPCCloud, obs.U64(uint64(frameIdx)), obs.U64(uint64(section)))
}

// echoCtx builds the trace context replies carry back to the client.
func (ss *session) echoCtx(f *video.Frame) *wire.TraceCtx {
	if ss.srv.cfg.Obs == nil {
		return nil
	}
	ctx := ss.spanCtx(f)
	return &wire.TraceCtx{Trace: ctx.Trace, Parent: ctx.Span}
}

// handleFrame runs one frame through the pipeline. The initial reply is
// sent by the OnInitial hook at the initial commit; the final reply here.
func (ss *session) handleFrame(f *wire.Frame) {
	// A draining edge (edge_retire) or a severed client path (link fault)
	// refuses the frame: no replies leave, and the client accounts the
	// frame as dropped when its wait times out.
	srv := ss.srv
	srv.mu.Lock()
	refusing := srv.draining
	srv.mu.Unlock()
	if refusing || srv.clientPath.IsDown() {
		srv.mu.Lock()
		srv.dropped++
		srv.mu.Unlock()
		return
	}
	frame := f.Frame
	ss.mu.Lock()
	ss.started[frame.Index] = time.Now()
	ss.padding[frame.Index] = f.Padding
	ss.traces[frame.Index] = f.Trace
	ss.mu.Unlock()

	out := ss.pipe.ProcessFrame(&frame)

	echo := ss.echoCtx(&frame)
	ss.mu.Lock()
	start := ss.started[frame.Index]
	delete(ss.started, frame.Index)
	delete(ss.padding, frame.Index)
	delete(ss.traces, frame.Index)
	ss.mu.Unlock()

	apologies := make([]string, 0, len(out.Apologies))
	for _, a := range out.Apologies {
		apologies = append(apologies, a.Reason)
	}
	// Count before the reply leaves: a client that holds every final reply
	// must never read Served() one short.
	srv.mu.Lock()
	srv.served++
	if out.Shed {
		srv.shed++
	}
	srv.mu.Unlock()
	if err := ss.wc.Send(&wire.Envelope{Kind: wire.KindFinalReply, FinalReply: &wire.FinalReply{
		FrameIndex:  frame.Index,
		Labels:      out.FinalVisible,
		Corrections: out.Corrections,
		Apologies:   apologies,
		Shed:        out.Shed,
		EdgeElapsed: time.Since(start),
		Trace:       echo,
	}}); err != nil {
		srv.cfg.Logf("edge: send final reply: %v", err)
	}
}

// onInitial is the pipeline's initial-commit hook: the initial reply
// leaves for the client the moment the initial sections commit, before any
// cloud round trip — the paper's low-latency answer.
func (ss *session) onInitial(f *video.Frame, out *core.FrameOutcome) {
	ss.mu.Lock()
	start := ss.started[f.Index]
	ss.mu.Unlock()
	if err := ss.wc.Send(&wire.Envelope{Kind: wire.KindInitialReply, InitialReply: &wire.InitialReply{
		FrameIndex:  f.Index,
		Labels:      out.InitialVisible,
		Triggered:   out.TxnsTriggered,
		Aborted:     out.InitialAborts,
		SentToCloud: out.SentToCloud && ss.cloud != nil,
		EdgeElapsed: time.Since(start),
		Trace:       ss.echoCtx(f),
	}}); err != nil {
		ss.srv.cfg.Logf("edge: send initial reply: %v", err)
	}
}

// Validate implements core.Validator over the real cloud connection, for
// every cloud-tier node of the session's graph: the frame crosses the
// socket with its section index, the cloud's shared batcher detects (or
// sheds) it, and the labels come back. No cloud configured — or a lost
// connection — commits the section locally, immediately: availability
// over freshness, with the initial commit already answered.
func (ss *session) Validate(req core.ValidationRequest) core.ValidationResult {
	if ss.cloud == nil || ss.srv.cloudPath.IsDown() {
		return core.ValidationResult{Status: core.ValidationLost}
	}
	ss.mu.Lock()
	pad := ss.padding[req.Frame.Index]
	ss.mu.Unlock()
	var tc *wire.TraceCtx
	o := ss.srv.cfg.Obs
	if o != nil && req.Trace.Valid() {
		tc = &wire.TraceCtx{Trace: req.Trace.Trace, Parent: rpcSpanID(req.Trace.Trace, req.Frame.Index, req.Section), Section: req.Section}
	}
	start := time.Now()
	t0 := ss.srv.clk.Now()
	ss.srv.cloudPath.Send(ss.srv.clk, req.Frame.SizeBytes) // modeled uplink (shaped runs only)
	resp, err := ss.cloud.validate(&wire.CloudRequest{
		FrameIndex: req.Frame.Index,
		Frame:      *req.Frame,
		Padding:    pad,
		Margin:     req.Margin,
		Section:    req.Section,
		Trace:      tc,
	})
	if err == nil {
		ss.srv.cloudPath.Send(ss.srv.clk, netsim.LabelReturnBytes) // modeled downlink
	}
	if tc != nil {
		o.EmitSpan(obs.Span{
			Name: obs.SpanRPCCloud, Tags: obs.Tags("edge", ss.srv.cfg.EdgeID),
			Start: t0, End: ss.srv.clk.Now(),
			Trace: req.Trace.Trace, ID: tc.Parent, Parent: req.Trace.Span,
		})
	}
	if err != nil {
		ss.srv.cfg.Logf("edge: section %d cloud hop failed, committing locally: %v", req.Section, err)
		return core.ValidationResult{Status: core.ValidationLost}
	}
	if resp.Shed {
		return core.ValidationResult{Status: core.ValidationShed, EdgeCloud: time.Since(start)}
	}
	ret := time.Since(start) - resp.DetectTime
	if ret < 0 {
		ret = 0
	}
	return core.ValidationResult{
		Status:      core.Validated,
		Cloud:       resp.Labels,
		CloudDetect: resp.DetectTime,
		CloudReturn: ret,
	}
}

// Served reports how many frames have completed their final commit.
func (s *EdgeServer) Served() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// Shed reports how many of the served frames lost their validation to the
// cloud's admission control and finalized with the edge answer.
func (s *EdgeServer) Shed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed
}

// Close stops the listener and all connections, then closes the WAL.
func (s *EdgeServer) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.asm.Part != nil {
		return s.asm.Part.CloseWAL()
	}
	return nil
}

// WALReplayed reports how many WAL records were replayed at startup (0
// without a WAL or on a fresh path) — a respawned edge reports its
// recovery here.
func (s *EdgeServer) WALReplayed() int { return s.replayed }

// CheckpointWAL compacts the edge's WAL to a snapshot of current state
// (twopc.Partition.Checkpoint).
func (s *EdgeServer) CheckpointWAL() error {
	if s.asm.Part == nil {
		return fmt.Errorf("tcpnet: no WAL configured")
	}
	_, _, err := s.asm.Part.Checkpoint()
	return err
}

// VerifyWAL runs the durability check (twopc.Partition.VerifyWAL): the WAL
// must replay cleanly to exactly the live store. Returns the replayed
// record count; a nil error is a clean verdict. Call at quiesce — writers
// are paused during the comparison, but frames mid-pipeline can land
// writes between two calls.
func (s *EdgeServer) VerifyWAL() (int, error) {
	if s.asm.Part == nil {
		return 0, fmt.Errorf("tcpnet: no WAL configured")
	}
	res, err := s.asm.Part.VerifyWAL()
	if res == nil {
		return 0, err
	}
	return res.Records, err
}

// SetDraining makes the edge refuse new frames while in-flight ones finish
// (true) or accept again (false) — the fleet's edge_retire drain.
func (s *EdgeServer) SetDraining(d bool) {
	s.mu.Lock()
	s.draining = d
	s.mu.Unlock()
}

// Draining reports whether the edge is refusing new frames.
func (s *EdgeServer) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Dropped reports frames refused by drain or a severed client path.
func (s *EdgeServer) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// SetPathDown blackholes (down=true) or heals one of the edge's modeled
// paths: "client" (frames are dropped on ingest) or "cloud" (validations
// are lost and frames finalize with edge answers) — the orchestrator's
// per-path link fault.
func (s *EdgeServer) SetPathDown(path string, down bool) error {
	switch path {
	case "client":
		s.clientPath.SetDown(down)
	case "cloud":
		s.cloudPath.SetDown(down)
	default:
		return fmt.Errorf("tcpnet: unknown path %q (want client or cloud)", path)
	}
	return nil
}
