// Package core implements the Croesus multi-stage edge-cloud pipeline —
// the paper's primary contribution (§3). An edge node runs a small, fast
// model and the initial sections of triggered transactions, answering the
// client immediately; frames whose edge confidence falls inside the
// validate interval [θL, θU] are forwarded to a cloud node running the full
// model, whose labels trigger the final (corrective) sections.
//
// The pipeline runs against a vclock.Clock, so the same code drives both
// deterministic virtual-time experiments and real-time deployments.
package core

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"croesus/internal/detect"
	"croesus/internal/netsim"
	"croesus/internal/obs"
	"croesus/internal/transport"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// DefaultEdgeSlots bounds an edge machine's concurrent inferences when its
// deployment sets no other bound: a pipeline's private edge pool, a
// scenario edge without "slots", and a croesus-edge process without -slots
// all run this many.
const DefaultEdgeSlots = 2

// cloudSlots bounds a pipeline's concurrent cloud inferences.
const cloudSlots = 8

// Mode names one of the three built-in graph shapes a pipeline runs when
// Config.Graph is nil (see Mode.Graph) — the systems the paper evaluates.
type Mode int

// Evaluation modes.
const (
	// ModeCroesus is the full multi-stage pipeline with bandwidth
	// thresholding.
	ModeCroesus Mode = iota
	// ModeEdgeOnly is the performance-centric baseline: the compact model
	// on the edge, no cloud correction.
	ModeEdgeOnly
	// ModeCloudOnly is the accuracy-centric baseline: every frame is
	// detected by the full model at the cloud.
	ModeCloudOnly
)

func (m Mode) String() string {
	switch m {
	case ModeCroesus:
		return "croesus"
	case ModeEdgeOnly:
		return "edge-only"
	case ModeCloudOnly:
		return "cloud-only"
	default:
		return "unknown"
	}
}

// TxnSource is §3.3's transactions bank: it maps each triggering detection
// to the transaction it fires. Implementations must be safe for concurrent
// use.
type TxnSource interface {
	// TxnFor returns the transaction template instance for one triggering
	// detection of one frame, or nil if no transaction is registered for
	// it.
	TxnFor(frameIndex int, d detect.Detection) *txn.Txn
}

// TxnSourceFunc adapts a function to TxnSource.
type TxnSourceFunc func(frameIndex int, d detect.Detection) *txn.Txn

// TxnFor calls f.
func (f TxnSourceFunc) TxnFor(frameIndex int, d detect.Detection) *txn.Txn {
	return f(frameIndex, d)
}

// Smoother feeds cloud corrections back into the edge path — the paper's
// footnote-1 heuristic. Apply rewrites the edge detections before input
// processing; Learn ingests the label matches of every validated frame.
// Implementations must be safe for concurrent use (frames overlap).
type Smoother interface {
	Apply(frameIndex int, dets []detect.Detection) []detect.Detection
	Learn(frameIndex int, matches []LabelMatch, edge []detect.Detection)
}

// Config assembles a pipeline. Zero-value fields take the documented
// defaults via Defaults.
type Config struct {
	Clock vclock.Clock
	// Mode picks the built-in graph when Graph is nil; ignored otherwise.
	Mode Mode

	EdgeModel  detect.Model
	CloudModel detect.Model
	// EdgeSpeed and CloudSpeed divide model inference latency: 1.0 is the
	// reference machine (t3a.xlarge in the paper); a t3a.small edge is
	// ≈ 0.45.
	EdgeSpeed  float64
	CloudSpeed float64
	// EdgeCompute, when set, is a shared edge compute pool used instead
	// of a private DefaultEdgeSlots semaphore — the cluster runtime shares
	// one per edge node across all cameras placed on it, so co-located
	// streams contend for the same machine.
	EdgeCompute *vclock.Semaphore

	// ClientEdge and EdgeCloud are the node's network paths. The defaults
	// are the simulated deployment's netsim links; the fleet runtime
	// injects whatever its transport provisioned, and the socket
	// deployment transport.Null or a ShapedPath where the node's own
	// socket already carried the bytes.
	ClientEdge transport.Path
	EdgeCloud  transport.Path
	// Preproc optionally shrinks frames before the edge→cloud hop
	// (compression / difference communication).
	Preproc netsim.Preprocessor

	// MinConfidence drops hopeless detections at input processing.
	MinConfidence float64
	// ThetaL and ThetaU are the bandwidth thresholds of §3.4: detections
	// below ThetaL are discarded, above ThetaU kept; anything in between
	// sends the frame to the cloud for validation. ThetaL applies to node
	// 0 of any graph; ThetaU shapes the built-in Croesus graph's switch
	// (an explicit Graph routes by its own) and bounds the interval
	// validation margins are measured in.
	ThetaL, ThetaU float64
	// OverlapMin is the label-matching overlap threshold (the paper uses
	// 10%).
	OverlapMin float64

	Source TxnSource
	CC     txn.CC
	Mgr    *txn.Manager

	// Graph is the inference graph every frame walks: node k's labels
	// commit transaction section k, so the frame makes one boundary commit
	// per node. Nil runs Mode's built-in shape (Mode.Graph) with a
	// DirectValidator over CloudModel, EdgeCloud and Preproc as its cloud
	// node — the paper's single-edge deployment. A TxnSource feeding an
	// explicit graph must produce one section per node
	// (WorkloadSource.SetPlan(Graph.SectionPlan())).
	Graph *Graph
	// PeerPath carries frames to peer-tier graph nodes (the inter-edge
	// mesh). Defaults to netsim's edge-edge link; the fleet runtime
	// injects its transport's peer path.
	PeerPath transport.Path

	// Smoother, when set, applies cloud-correction feedback to node 0's
	// detections and learns from every cloud-tier node's matches.
	Smoother Smoother

	// OnInitial, when set, is called at every frame's initial commit —
	// after the initial sections committed and the client-facing answer
	// exists, before any cloud validation. The real TCP deployment sends
	// its initial reply from this hook, so both deployments run the one
	// Figure-1 execution in this package instead of duplicating it. The
	// outcome is a mid-flight snapshot: only the initial-stage fields are
	// filled, and writes to it are not seen by the pipeline.
	OnInitial func(f *video.Frame, out *FrameOutcome)

	// Obs, when set, enables span tracing and metrics for this pipeline.
	// TagKV is the alternating key/value tag list ({edge, camera,
	// protocol}) stamped on its spans and metrics. Instrumentation only
	// reads the clock and touches obs-internal state, so enabling it
	// never perturbs the virtual-time schedule.
	Obs   *obs.Obs
	TagKV []string
	// SpanCtx, when set alongside Obs, resolves each frame's span context:
	// the trace ID and root span ID its spans attach to. The pipeline then
	// emits a frame.root span covering the whole frame, parents every
	// stage span to it, stamps the context on transaction instances and
	// validation requests, and attaches it to traced transport sends — the
	// cross-process causality chain. Nil keeps the PR-6 flat spans.
	SpanCtx func(f *video.Frame) obs.SpanContext
	// QueueDepth, when set, is the per-edge inference-queue gauge this
	// pipeline adjusts while waiting for an edge compute slot. The
	// cluster runtime resolves one gauge per edge and shares it across
	// the cameras placed there, mirroring the shared EdgeCompute pool.
	QueueDepth *obs.Gauge
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.EdgeSpeed == 0 {
		c.EdgeSpeed = 1
	}
	if c.CloudSpeed == 0 {
		c.CloudSpeed = 1
	}
	if c.ClientEdge == nil {
		c.ClientEdge = netsim.ClientEdgeLink()
	}
	if c.EdgeCloud == nil {
		c.EdgeCloud = netsim.EdgeCloudCrossCountry()
	}
	if c.Preproc == nil {
		c.Preproc = netsim.Identity{}
	}
	if c.PeerPath == nil && c.Graph != nil {
		c.PeerPath = netsim.EdgeEdgeLink()
	}
	if c.MinConfidence == 0 {
		c.MinConfidence = 0.05
	}
	if c.OverlapMin == 0 {
		c.OverlapMin = 0.10
	}
	return c
}

// Pipeline executes frames over its inference graph.
type Pipeline struct {
	cfg       Config
	edgeSlots *vclock.Semaphore
	cloudSlot *vclock.Semaphore

	// Pre-resolved observability handles (all nil-safe no-ops when
	// Config.Obs is unset), so the hot path never does registry lookups.
	tags       string
	queueDepth *obs.Gauge
	mFrames    *obs.Counter
	mShed      *obs.Counter
	mLost      *obs.Counter
	mValidated *obs.Counter
	mTxns      *obs.Counter
	mApologies *obs.Counter
	mInitial   *obs.Histogram
	mFinal     *obs.Histogram
	mComponent [5]*obs.Histogram // compute, queue, lock, twopc, network

	// sec holds the per-section handles, indexed by graph node. The first
	// and last sections are the initial and final commits and report under
	// those names; only the sections between them carry a section tag and
	// the per-section metric families.
	sec []sectionHandles

	mu       sync.Mutex
	outcomes []FrameOutcome
}

// New validates the configuration and builds a pipeline.
func New(cfg Config) (*Pipeline, error) {
	cfg = cfg.Defaults()
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: Config.Clock is required")
	}
	if (cfg.Source == nil) != (cfg.CC == nil) || (cfg.CC == nil) != (cfg.Mgr == nil) {
		return nil, fmt.Errorf("core: Source, CC, and Mgr must be provided together")
	}
	edgeSlots := cfg.EdgeCompute
	if edgeSlots == nil {
		edgeSlots = vclock.NewSemaphore(cfg.Clock, DefaultEdgeSlots)
	}
	p := &Pipeline{
		cfg:       cfg,
		edgeSlots: edgeSlots,
		cloudSlot: vclock.NewSemaphore(cfg.Clock, cloudSlots),
	}
	if cfg.Graph == nil {
		if err := p.compileMode(); err != nil {
			return nil, err
		}
	}
	g := p.cfg.Graph
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("core: Config.Graph needs at least one node")
	}
	for k := range g.Nodes {
		if nd := &g.Nodes[k]; nd.Validator == nil && p.model(nd) == nil {
			return nil, fmt.Errorf("core: graph node %d (%q) has no model", k, nd.Name)
		}
	}
	p.tags = obs.Tags(cfg.TagKV...)
	p.queueDepth = cfg.QueueDepth
	if o := cfg.Obs; o != nil {
		p.mFrames = o.Counter(obs.MetricFrames, p.tags)
		p.mShed = o.Counter(obs.MetricFramesShed, p.tags)
		p.mLost = o.Counter(obs.MetricFramesLost, p.tags)
		p.mValidated = o.Counter(obs.MetricFramesValid, p.tags)
		p.mTxns = o.Counter(obs.MetricTxns, p.tags)
		p.mApologies = o.Counter(obs.MetricApologies, p.tags)
		p.mInitial = o.Histogram(obs.MetricInitialLatency, p.tags)
		p.mFinal = o.Histogram(obs.MetricFinalLatency, p.tags)
		for i, comp := range [5]string{"compute", "queue", "lock", "twopc", "network"} {
			p.mComponent[i] = o.Histogram(obs.MetricComponent, obs.Tags(append([]string{"component", comp}, cfg.TagKV...)...))
		}
	}
	n := len(g.Nodes)
	p.sec = make([]sectionHandles, n)
	for k := range p.sec {
		h := &p.sec[k]
		h.tags = p.tags
		if k == 0 || k == n-1 {
			continue
		}
		h.tags = obs.Tags(append([]string{"section", strconv.Itoa(k)}, cfg.TagKV...)...)
		if cfg.Obs != nil {
			h.latency = cfg.Obs.Histogram(obs.MetricSectionLatency, h.tags)
			h.commits = cfg.Obs.Counter(obs.MetricSectionCommit, h.tags)
		}
	}
	return p, nil
}

// sectionHandles are one section's span tags and metric handles (the
// handles nil-safe no-ops where unset).
type sectionHandles struct {
	tags    string
	latency *obs.Histogram
	commits *obs.Counter
}

// compileMode installs Config.Mode's built-in graph: the paper's
// single-edge deployment, with a DirectValidator as its cloud node. The
// baselines apply no bandwidth thresholding.
func (p *Pipeline) compileMode() error {
	cfg := &p.cfg
	if cfg.EdgeModel == nil && cfg.Mode != ModeCloudOnly {
		return fmt.Errorf("core: Config.EdgeModel is required for %v", cfg.Mode)
	}
	if cfg.CloudModel == nil && cfg.Mode != ModeEdgeOnly {
		return fmt.Errorf("core: Config.CloudModel is required for %v", cfg.Mode)
	}
	if cfg.Mode != ModeCroesus {
		cfg.ThetaL, cfg.ThetaU = 0, 0
	}
	if !(cfg.ThetaL <= cfg.ThetaU) {
		return fmt.Errorf("core: thresholds must satisfy θL ≤ θU, got (%.2f, %.2f)", cfg.ThetaL, cfg.ThetaU)
	}
	cfg.Graph = cfg.Mode.Graph(cfg.ThetaU, &DirectValidator{
		Clock:      cfg.Clock,
		Link:       cfg.EdgeCloud,
		Preproc:    cfg.Preproc,
		Model:      cfg.CloudModel,
		Slots:      p.cloudSlot,
		EdgeSpeed:  cfg.EdgeSpeed,
		CloudSpeed: cfg.CloudSpeed,
	})
	return nil
}

// Config returns the (defaulted) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// ProcessVideo runs every frame through the pipeline on the configured
// clock. Frames are injected at their capture timestamps and processed
// concurrently, as a continuously-capturing client would. The caller must
// be the clock's driver (outside the simulation); ProcessVideo blocks until
// the last frame's final commit and returns per-frame outcomes in frame
// order.
func (p *Pipeline) ProcessVideo(frames []*video.Frame) []FrameOutcome {
	p.mu.Lock()
	p.outcomes = make([]FrameOutcome, len(frames))
	p.mu.Unlock()
	clk := p.cfg.Clock
	for i, f := range frames {
		i, f := i, f
		clk.Go(func() {
			clk.Sleep(f.At - clk.Now()) // wait for capture time
			out := p.processFrame(f)
			p.mu.Lock()
			p.outcomes[i] = out
			p.mu.Unlock()
		})
	}
	clk.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outcomes
}

// ProcessFrame runs one frame through the pipeline synchronously and
// returns its outcome. The caller must be a participant goroutine of the
// configured clock (started with Clock.Go); most callers want
// ProcessVideo, which handles capture timing. The cluster runtime uses
// ProcessFrame directly so many cameras can share one clock and one
// Wait.
func (p *Pipeline) ProcessFrame(f *video.Frame) FrameOutcome {
	return p.processFrame(f)
}

// processFrame walks one frame over the graph and records it.
func (p *Pipeline) processFrame(f *video.Frame) FrameOutcome {
	ctx := p.spanCtx(f)
	t0 := p.cfg.Clock.Now()
	out := p.walk(f, ctx)
	if p.cfg.Obs != nil && ctx.Valid() {
		p.cfg.Obs.EmitSpan(obs.Span{
			Name: obs.SpanFrameRoot, Tags: p.tags,
			Start: t0, End: p.cfg.Clock.Now(),
			Trace: ctx.Trace, ID: ctx.Span, Parent: ctx.Parent,
		})
	}
	p.observe(&out)
	return out
}

// spanCtx resolves the frame's span context via the configured hook (the
// zero context when tracing is off).
func (p *Pipeline) spanCtx(f *video.Frame) obs.SpanContext {
	if p.cfg.SpanCtx == nil {
		return obs.SpanContext{}
	}
	return p.cfg.SpanCtx(f)
}

// observe feeds the finished frame into the metrics registry. No-op when
// observability is disabled (every handle is a nil-safe no-op).
func (p *Pipeline) observe(out *FrameOutcome) {
	if p.cfg.Obs == nil {
		return
	}
	p.mFrames.Inc()
	switch {
	case out.Shed:
		p.mShed.Inc()
	case out.CloudLost:
		p.mLost.Inc()
	case out.SentToCloud:
		p.mValidated.Inc()
	}
	p.mTxns.Add(int64(out.TxnsTriggered))
	p.mApologies.Add(int64(len(out.Apologies)))
	p.mInitial.Observe(out.InitialLatency)
	p.mFinal.Observe(out.FinalLatency)
	compute, queue, lock, twopc, network := out.Breakdown.CriticalPath()
	for i, d := range [5]time.Duration{compute, queue, lock, twopc, network} {
		p.mComponent[i].Observe(d)
	}
	for k := range out.Sections {
		p.sec[k].latency.Observe(out.Sections[k].Latency)
	}
}

func filterConfidence(dets []detect.Detection, min float64) []detect.Detection {
	// Fast path: nothing filtered (MinConfidence 0 is the common config) —
	// return the input without copying.
	keep := 0
	for keep < len(dets) && dets[keep].Confidence >= min {
		keep++
	}
	if keep == len(dets) {
		return dets
	}
	out := make([]detect.Detection, 0, len(dets))
	out = append(out, dets[:keep]...)
	for _, d := range dets[keep:] {
		if d.Confidence >= min {
			out = append(out, d)
		}
	}
	return out
}

func scale(d time.Duration, speed float64) time.Duration {
	if speed <= 0 {
		return d
	}
	return time.Duration(float64(d) / speed)
}
