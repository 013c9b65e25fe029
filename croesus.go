// Package croesus is the public API of the Croesus reproduction: a
// multi-stage edge-cloud video-analytics pipeline with multi-stage
// transactions (MS-SR and MS-IA), after "Croesus: Multi-Stage Processing
// and Transactions for Video-Analytics in Edge-Cloud Systems" (ICDE 2022).
//
// The quickest way in:
//
//	clk := croesus.NewSimClock()
//	sys := croesus.NewSystem(clk)
//	p, err := croesus.NewPipeline(croesus.Config{
//		Clock:      clk,
//		EdgeModel:  croesus.TinyYOLOSim(42),
//		CloudModel: croesus.YOLOv3Sim(croesus.YOLO416, 42),
//		ThetaL:     0.40, ThetaU: 0.62,
//		Source:     croesus.NewWorkloadSource(1000, 7),
//		CC:         sys.MSIA(),
//		Mgr:        sys.Manager,
//	})
//	outs := p.ProcessVideo(croesus.NewVideoGenerator(croesus.ParkDog(), 11).Generate(100))
//
// A multi-camera fleet is described once, as a Scenario (topology plus
// event timeline), and played with RunScenario.
//
// See examples/ for runnable programs and internal/experiments for the
// harnesses that regenerate every table and figure of the paper.
package croesus

import (
	"io"

	"croesus/internal/cluster"
	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/experiments"
	"croesus/internal/lock"
	"croesus/internal/netsim"
	"croesus/internal/node"
	"croesus/internal/obs"
	"croesus/internal/scenario"
	"croesus/internal/store"
	"croesus/internal/threshold"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// ---------------------------------------------------------------------------
// Clocks

type (
	// Clock abstracts time: a deterministic virtual scheduler for
	// experiments or the wall clock for deployments.
	Clock = vclock.Clock
	// SimClock is the virtual-time scheduler.
	SimClock = vclock.Sim
)

// NewSimClock returns a fresh virtual-time scheduler.
func NewSimClock() *SimClock { return vclock.NewSim() }

// ---------------------------------------------------------------------------
// Video and detection

type (
	// VideoProfile describes a synthetic video workload.
	VideoProfile = video.Profile
	// VideoGenerator produces frames deterministically from a seed.
	VideoGenerator = video.Generator
	// Frame is one video frame with ground-truth objects.
	Frame = video.Frame
	// Rect is a normalized bounding box.
	Rect = video.Rect
	// ClassFreq weights one object class in a video profile.
	ClassFreq = video.ClassFreq

	// Model is a detection model.
	Model = detect.Model
	// Detection is one detected object: label, confidence, box.
	Detection = detect.Detection
	// SimModel is the simulated CNN used for both edge and cloud models.
	SimModel = detect.SimModel
	// YOLOSize selects a cloud model variant (320, 416, 608).
	YOLOSize = detect.YOLOSize
)

// Cloud model sizes (Table 2).
const (
	YOLO320 = detect.YOLO320
	YOLO416 = detect.YOLO416
	YOLO608 = detect.YOLO608
)

// NewVideoGenerator returns a deterministic generator for the profile.
func NewVideoGenerator(p VideoProfile, seed int64) *VideoGenerator {
	return video.NewGenerator(p, seed)
}

// The five evaluation videos of §5.1.
func ParkDog() VideoProfile           { return video.ParkDog() }
func StreetVehicles() VideoProfile    { return video.StreetVehicles() }
func AirportRunway() VideoProfile     { return video.AirportRunway() }
func MallSurveillance() VideoProfile  { return video.MallSurveillance() }
func StreetPedestrians() VideoProfile { return video.StreetPedestrians() }

// Videos returns all evaluation profiles in paper order.
func Videos() []VideoProfile { return video.AllProfiles() }

// TinyYOLOSim returns the compact edge model.
func TinyYOLOSim(seed int64) *SimModel { return detect.TinyYOLOSim(seed) }

// YOLOv3Sim returns a full cloud model of the given size.
func YOLOv3Sim(size YOLOSize, seed int64) *SimModel { return detect.YOLOv3Sim(size, seed) }

// ---------------------------------------------------------------------------
// Store, locks, transactions

type (
	// Store is the edge node's versioned key-value store.
	Store = store.Store
	// Value is a stored payload.
	Value = store.Value
	// LockManager provides shared/exclusive key locks.
	LockManager = lock.Manager

	// Txn is a multi-stage transaction template.
	Txn = txn.Txn
	// TxnCtx is the database handle passed to section bodies.
	TxnCtx = txn.Ctx
	// TxnInstance is one execution of a template.
	TxnInstance = txn.Instance
	// TxnManager owns the store, locks, and dependency tracking.
	TxnManager = txn.Manager
	// RWSet declares a section's read and write keys.
	RWSet = txn.RWSet
	// CC is a multi-stage concurrency-control protocol.
	CC = txn.CC

	// GraphSpec declares an inference graph — the ordered node list a
	// scenario's "graph" block decodes into; node k hosts transaction
	// section k.
	GraphSpec = node.GraphSpec
	// GraphNodeSpec declares one graph node: tier, model, speed,
	// optional confidence switch.
	GraphNodeSpec = node.GraphNodeSpec
	// SwitchBranchSpec routes to a later node (or "done") when the
	// routing confidence falls inside [Lo, Hi].
	SwitchBranchSpec = node.SwitchBranchSpec
)

// Graph model names.
const (
	ModelTinyYOLO = node.ModelTinyYOLO
	ModelYOLO320  = node.ModelYOLO320
	ModelYOLO416  = node.ModelYOLO416
	ModelYOLO608  = node.ModelYOLO608
)

// Multi-stage protocol errors.
var (
	ErrAborted   = txn.ErrAborted
	ErrRetracted = txn.ErrRetracted
)

// System bundles the storage stack one edge node needs.
type System struct {
	Clock   Clock
	Store   *Store
	Locks   *LockManager
	Manager *TxnManager
}

// NewSystem builds a store, lock manager, and transaction manager on clk.
func NewSystem(clk Clock) *System {
	st := store.New()
	locks := lock.NewManager(clk)
	return &System{
		Clock:   clk,
		Store:   st,
		Locks:   locks,
		Manager: txn.NewManager(clk, st, locks),
	}
}

// MSIA returns the invariant-confluence protocol bound to this system.
func (s *System) MSIA() CC { return &txn.MSIA{M: s.Manager} }

// MSSRWait returns MS-SR with blocking (wait-die) acquisition.
func (s *System) MSSRWait() CC { return &txn.MSSR{M: s.Manager, Policy: txn.Wait} }

// ---------------------------------------------------------------------------
// Network

// Link is a one-way network path with delay, bandwidth, and traffic
// accounting.
type Link = netsim.Link

// Link presets for the paper's deployment.
func ClientEdgeLink() *Link        { return netsim.ClientEdgeLink() }
func EdgeCloudCrossCountry() *Link { return netsim.EdgeCloudCrossCountry() }
func EdgeCloudSameSite() *Link     { return netsim.EdgeCloudSameSite() }
func EdgeEdgeLink() *Link          { return netsim.EdgeEdgeLink() }

// ---------------------------------------------------------------------------
// Pipeline (the paper's §3)

type (
	// Config assembles a pipeline.
	Config = core.Config
	// Pipeline executes frames through the multi-stage system.
	Pipeline = core.Pipeline
	// Mode selects Croesus or one of the baselines.
	Mode = core.Mode
	// FrameOutcome is the client-observable result of one frame.
	FrameOutcome = core.FrameOutcome
	// Summary aggregates a run.
	Summary = core.Summary
	// InitialInput is what initial sections receive.
	InitialInput = core.InitialInput
	// FinalInput is what final sections receive.
	FinalInput = core.FinalInput
	// LabelMatch pairs an edge label with its correction.
	LabelMatch = core.LabelMatch
	// WorkloadSource is the paper's YCSB-A-style transaction source.
	WorkloadSource = core.WorkloadSource
	// Graph is the inference graph a pipeline walks (Config.Graph): node
	// k's labels commit transaction section k. Mode.Graph builds the
	// paper's two-section shapes; deeper graphs are the generalized
	// m-stage model of §3.5.
	Graph = core.Graph

	// Validator runs one graph node off the hub (GraphNode.Validator):
	// the seam between a pipeline's edge side and whatever answers for
	// the cloud.
	Validator = core.Validator
	// ValidationRequest carries one frame to a Validator.
	ValidationRequest = core.ValidationRequest
	// ValidationResult is a Validator's reply.
	ValidationResult = core.ValidationResult
)

// Pipeline modes: the built-in graph shapes (Mode.Graph).
const (
	ModeCroesus   = core.ModeCroesus
	ModeEdgeOnly  = core.ModeEdgeOnly
	ModeCloudOnly = core.ModeCloudOnly
)

// DoneTarget is the SwitchBranch destination that ends a frame's route.
const DoneTarget = core.DoneTarget

// Validation outcomes.
const (
	Validated      = core.Validated
	ValidationShed = core.ValidationShed
	ValidationLost = core.ValidationLost
)

// Label-match cases (§3.3).
const (
	MatchCorrect   = core.MatchCorrect
	MatchCorrected = core.MatchCorrected
	MatchErroneous = core.MatchErroneous
	MatchNew       = core.MatchNew
	MatchAssumed   = core.MatchAssumed
)

// NewPipeline validates cfg and builds a pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) { return core.New(cfg) }

// NewWorkloadSource returns the paper's per-detection transaction source.
func NewWorkloadSource(nKeys int, seed int64) *WorkloadSource {
	return core.NewWorkloadSource(nKeys, seed)
}

// MatchLabels classifies edge labels against cloud labels (§3.3).
func MatchLabels(edge, cloud []Detection, minIoU float64) []LabelMatch {
	return core.MatchLabels(edge, cloud, minIoU)
}

// Summarize scores outcomes against ground truth for a query class.
func Summarize(videoName string, mode Mode, queryClass string, outs []FrameOutcome, truth func(int) []Detection, overlapMin float64) Summary {
	return core.Summarize(videoName, mode, queryClass, outs, truth, overlapMin)
}

// TruthFromModel precomputes per-frame reference detections.
func TruthFromModel(m Model, frames []*Frame) func(int) []Detection {
	return core.TruthFromModel(m, frames)
}

// ---------------------------------------------------------------------------
// Bandwidth thresholding (§3.4)

type (
	// ThresholdEvaluator scores (θL, θU) pairs over one video.
	ThresholdEvaluator = threshold.Evaluator
	// ThresholdResult is a solver's chosen operating point.
	ThresholdResult = threshold.Result
	// HeatmapCell is one Figure 5 heatmap entry.
	HeatmapCell = threshold.Cell
)

// NewThresholdEvaluator precomputes detections for threshold search.
func NewThresholdEvaluator(frames []*Frame, edge, cloud Model, queryClass string, overlapMin float64) *ThresholdEvaluator {
	return threshold.NewEvaluator(frames, edge, cloud, queryClass, overlapMin)
}

// BruteForceThresholds scans the full grid for the optimum under µ.
func BruteForceThresholds(e *ThresholdEvaluator, mu, step float64) ThresholdResult {
	return threshold.BruteForce(e, mu, step)
}

// GradientThresholds solves the same problem with far fewer evaluations.
func GradientThresholds(e *ThresholdEvaluator, mu float64) ThresholdResult {
	return threshold.GradientStep(e, mu)
}

// ThresholdHeatmap evaluates the full grid for heatmap rendering.
func ThresholdHeatmap(e *ThresholdEvaluator, step float64) []HeatmapCell {
	return threshold.Heatmap(e, step)
}

// ---------------------------------------------------------------------------
// Multi-partition operations (§4.5)

type (
	// PartitionNode is one edge shard in a multi-partition deployment.
	PartitionNode = twopc.Partition
	// ShardedCC is the pipeline-facing distributed protocol: a txn.CC
	// that routes each transaction's RW-set through the partitions owning
	// its keys, locking remotely and committing with 2PC.
	ShardedCC = twopc.ShardedCC
	// ShardedStore routes key-value operations to the owning partition.
	ShardedStore = twopc.ShardedStore
	// DistStats is the shared concurrency-safe counter block.
	DistStats = twopc.DistStats
)

// NewPartitionOver returns a partition wrapping an existing store and lock
// manager.
func NewPartitionOver(id int, st *Store, locks *LockManager) *PartitionNode {
	return twopc.NewPartitionOver(id, st, locks)
}

// Distributed protocols.
const (
	DistMSSR = twopc.MSSR
	DistMSIA = twopc.MSIA
)

// ---------------------------------------------------------------------------
// Fleet reports

// ClusterReport aggregates a fleet run: per-camera summaries plus fleet
// throughput, latency percentiles, and shedding.
type ClusterReport = cluster.ClusterReport

// ---------------------------------------------------------------------------
// Scenarios: declarative topology + event timeline
//
// A Scenario is the one way to describe a fleet: the topology (edges,
// cameras, shards, protocol, batcher) plus a clock-ordered timeline of
// runtime events — cameras joining/leaving, a camera and its shard
// migrating between edges, workload shifts, scripted faults, WAL
// checkpoints.

type (
	// Scenario is a declarative fleet deployment: topology + timeline.
	Scenario = scenario.Scenario
	// ScenarioTopology declares the fleet at time zero.
	ScenarioTopology = scenario.Topology
	// ScenarioEdge declares one edge node.
	ScenarioEdge = scenario.Edge
	// ScenarioCamera declares one camera stream.
	ScenarioCamera = scenario.Camera
	// ScenarioBatcher configures the shared cloud validator.
	ScenarioBatcher = scenario.Batcher
	// ScenarioEvent is one timeline entry.
	ScenarioEvent = scenario.Event
	// ScenarioDuration is a JSON-friendly duration ("80ms").
	ScenarioDuration = scenario.Duration
	// ScenarioOptions select the clock a scenario runs on — virtual, or a
	// scaled wall clock (TimeScale > 0) — and the observability layer.
	ScenarioOptions = scenario.Options

	// TransportPath is one directed fleet network path.
	TransportPath = transport.Path
)

// Scenario event kinds and 2PC crash points (Event.Do / Event.Point).
const (
	EventCameraJoin    = scenario.KindCameraJoin
	EventCameraLeave   = scenario.KindCameraLeave
	EventMigrateCamera = scenario.KindMigrateCamera
	EventWorkloadShift = scenario.KindWorkloadShift
	EventEdgeCrash     = scenario.KindEdgeCrash
	EventEdgeRetire    = scenario.KindEdgeRetire
	EventTwoPCCrash    = scenario.KindTwoPCCrash
	EventLinkFault     = scenario.KindLinkFault
	EventCheckpoint    = scenario.KindCheckpoint

	ScenarioPointParticipantPrepared = scenario.PointParticipantPrepared
	ScenarioPointAfterPrepare        = scenario.PointAfterPrepare
	ScenarioPointAfterDecision       = scenario.PointAfterDecision
)

// LoadScenario reads, decodes, and validates a scenario file (version-1
// JSON).
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// RunScenario plays a scenario on a fresh virtual clock and returns the
// fleet report. Same scenario, same seed ⇒ byte-identical report.
func RunScenario(s *Scenario) (*ClusterReport, error) { return scenario.Run(s) }

// RunScenarioWith plays a scenario on the selected clock: the virtual clock
// (byte-identical replay) or, with TimeScale > 0, the same fleet on a scaled
// wall clock, where goroutines truly overlap.
func RunScenarioWith(s *Scenario, o ScenarioOptions) (*ClusterReport, error) {
	return scenario.RunWith(s, o)
}

// ---------------------------------------------------------------------------
// Observability: deterministic tracing + fleet metrics (internal/obs)

type (
	// Obs bundles a span tracer and a metrics registry; set it on
	// ScenarioOptions.Obs to thread observability through a fleet. Nil
	// disables all instrumentation.
	Obs = obs.Obs
	// ObsSpan is one traced interval on the run's clock.
	ObsSpan = obs.Span
	// ObsRegistry holds tagged counters, gauges, and latency histograms.
	ObsRegistry = obs.Registry
)

// NewObs returns an observability layer with a fresh tracer and registry.
func NewObs() *Obs { return obs.New() }

// WriteTraceFile writes a trace: JSONL when name ends in ".jsonl", a
// Chrome trace_event JSON file (openable in Perfetto / chrome://tracing)
// otherwise. Spans are sorted, so a deterministic run's file is
// byte-identical across replays.
func WriteTraceFile(w io.Writer, name string, spans []ObsSpan) error {
	return obs.WriteTraceFile(w, name, spans)
}

// ServeDebug serves /metrics (Prometheus text), /debug/vars (expvar), and
// /debug/pprof on addr in the background, returning the bound address.
func ServeDebug(addr string, reg *ObsRegistry) (string, error) {
	return obs.ServeDebug(addr, reg)
}

// ---------------------------------------------------------------------------
// Experiments

type (
	// ExperimentTable is a reproduced paper table/figure.
	ExperimentTable = experiments.Table
	// ExperimentOpts scales the experiment harnesses.
	ExperimentOpts = experiments.Opts
)

// RunExperiment regenerates one paper table/figure by ID (see
// ExperimentIDs).
func RunExperiment(id string, opts ExperimentOpts) (ExperimentTable, bool) {
	return experiments.ByID(id, opts)
}

// ExperimentIDs lists the available experiment IDs.
func ExperimentIDs() []string { return experiments.IDs() }
