// Package cluster is the deployment layer above the single-camera
// pipeline of internal/core: N camera streams placed across M edge nodes
// that share one cloud validator. Each edge node owns its store, locks,
// and transaction manager exactly like a standalone Croesus edge; the
// cloud side replaces the per-pipeline direct model call with an
// SLO-aware batcher (Batcher) that coalesces validate-interval frames
// from the whole fleet and sheds the lowest-confidence-margin frames
// under overload — shed frames keep their edge answer, which is exactly
// Croesus' degradation mode, so overload costs accuracy, never the SLO.
//
// The fleet is dynamic: cameras are driven by per-camera feeders, so a
// scenario (internal/scenario) can join, retire, migrate, or re-shape a
// camera mid-run, move its logical shard to another edge through the
// fleet's shard map, fail edges, and checkpoint write-ahead logs — all on
// the one vclock.Clock, so a sixteen-camera fleet under a full event
// timeline is as deterministic and as fast to simulate as a single
// pipeline.
//
// Config is the form a scenario compiles to, not a public deployment API:
// the croesus facade exports no way to build one. Cameras without an edge
// pin are placed round-robin over the live edges.
package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/faults"
	"croesus/internal/lock"
	"croesus/internal/node"
	"croesus/internal/obs"
	"croesus/internal/store"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
	"croesus/internal/workload"
)

// CameraSpec declares one camera stream.
type CameraSpec struct {
	// ID names the camera in reports. Defaults to "cam<i>".
	ID string
	// Profile is the synthetic scene this camera captures.
	Profile video.Profile
	// Seed drives frame generation and the per-camera workload; distinct
	// seeds give distinct videos of the same profile.
	Seed int64
	// Frames is how many frames the camera captures.
	Frames int
	// Edge, when set, pins the camera to the named edge node instead of
	// round-robin placement over the live edges — how a scenario's
	// declarative topology fixes its layout.
	Edge string
	// Shard is the camera's logical shard in a fleet with an explicit
	// shard space (Config.ShardOwners set); ignored otherwise, where each
	// camera draws from its edge's shard.
	Shard int
}

// EdgeSpec declares one edge node.
type EdgeSpec struct {
	// ID names the edge in reports. Defaults to "edge<i>".
	ID string
	// Speed is the machine speed factor (1.0 = reference; a t3a.small is
	// ≈ 0.45).
	Speed float64
	// Slots bounds concurrent edge inferences (0: core.DefaultEdgeSlots).
	Slots int
	// SameSite co-locates this edge with the cloud (short link) instead
	// of the default cross-country path.
	SameSite bool
}

// EdgeNode is one provisioned edge: the full standalone storage stack
// plus its links, shared by every camera placed on it.
type EdgeNode struct {
	Spec  EdgeSpec
	Model detect.Model
	Store *store.Store
	Locks *lock.Manager
	// Mgr is this edge's transaction manager. In a sharded fleet every
	// edge shares the one fleet-wide manager (undo log and dependency
	// index span edges); otherwise each edge has a private one.
	Mgr *txn.Manager
	// Partition is this edge's shard of the fleet keyspace (sharded
	// fleets only); it wraps Store and Locks.
	Partition *twopc.Partition
	// CC is the concurrency-control protocol this edge's cameras run
	// their transactions under.
	CC txn.CC
	// ClientEdge and EdgeCloud are this edge's network paths, provisioned
	// by the fleet's transport (netsim links on the fleet clock);
	// Peers[i] is the one-way path to edge i (nil for itself), carrying
	// cross-edge lock and commit traffic in sharded fleets.
	ClientEdge transport.Path
	EdgeCloud  transport.Path
	Peers      []transport.Path
	// Compute is the edge's shared inference pool: every camera placed
	// here contends for these Spec.Slots slots.
	Compute *vclock.Semaphore
	// Cameras lists the IDs placed on this edge, in placement order.
	Cameras []string

	// graph is what this edge's camera pipelines walk.
	graph *core.Graph
	idx   int
}

// Config assembles a cluster. It is what a scenario compiles to, and
// nothing else builds one. Zero-value fields take the documented defaults.
type Config struct {
	Clock   vclock.Clock
	Cameras []CameraSpec
	Edges   []EdgeSpec

	// Batcher configures the shared cloud validator; its Clock and Model
	// are filled in from the cluster when unset.
	Batcher BatcherConfig

	// Seed seeds the detection models (default 42).
	Seed int64

	// ThetaL and ThetaU are the fleet-wide bandwidth thresholds
	// (defaults 0.40 / 0.62, the paper's operating point).
	ThetaL, ThetaU float64
	// OverlapMin is the label-matching threshold (default 0.10).
	OverlapMin float64

	// WorkloadKeys sizes each camera's YCSB-A-style transaction source
	// (default 1000); OpCost charges clock time per database operation.
	WorkloadKeys int
	OpCost       time.Duration

	// Sharded makes the fleet's keyspace one database sharded across the
	// edge nodes: each edge hosts a twopc.Partition, every edge shares one
	// fleet-wide transaction manager, and cross-edge keys are locked
	// remotely and committed with 2PC (§4.5 at cluster scale). It is
	// implied by CrossEdgeFraction > 0.
	Sharded bool
	// CrossEdgeFraction is the probability that a workload key belongs to
	// another shard (in the default per-edge shard space: another edge) —
	// the multi-partition operation rate. 0 keeps every transaction on
	// its home shard (but still under the sharded machinery when Sharded
	// is set).
	CrossEdgeFraction float64
	// Protocol selects MS-IA (default) or MS-SR for the fleet's
	// transactions, in both sharded and unsharded fleets.
	Protocol twopc.Protocol

	// Graph, when set, runs every camera over an N-node inference graph:
	// graph node k owns transaction section k, placed on its tier (edge,
	// peer mesh, or cloud), and the report gains a per-section block. Nil —
	// or the default spec, an edge node falling through to a cloud node —
	// runs the two-stage graph: bandwidth thresholding into the shared
	// batcher.
	Graph *node.GraphSpec

	// ZipfSkew, when positive, replaces the uniform sharded key chooser
	// with a Zipf-skewed one of that exponent (values ≤ 1 are clamped just
	// above 1): every shard gets a hot head and cross-edge traffic
	// concentrates on remote hot keys. Sharded fleets only.
	ZipfSkew float64

	// ShardOwners, when set, sizes an explicit logical shard space routed
	// through a mutable shard map: shard i starts on edge ShardOwners[i],
	// and there are len(ShardOwners) shards (a per-camera scenario gives
	// every camera its own, so a migration moves exactly that camera's
	// data). Nil — the default — keeps the classic one-shard-per-edge
	// identity layout, §4.5's model. Setting it implies Sharded.
	ShardOwners []int

	// Durable gives every partition a write-ahead log and the fleet a
	// fault injector (see internal/faults), whose verbs crash, recover and
	// partition the edges — what checkpointing and scenario-driven crashes
	// build on. Implies Sharded.
	Durable bool
	// ReplayCost is the clock time a crash recovery charges per WAL record
	// it replays (default 5µs).
	ReplayCost time.Duration
	// CheckpointEvery, when positive, checkpoints every partition's WAL
	// on that period, bounding crash-recovery replay time. Implies
	// Durable. Durable partitions keep their logs in a fresh temporary
	// directory, removed by Close.
	CheckpointEvery time.Duration

	// Obs, when set, threads the observability layer through the fleet:
	// every pipeline, the batcher, the sharded commit path, migrations,
	// and the fault injector emit spans to its tracer and mirror their
	// counters into its registry. Nil disables all instrumentation (the
	// default); enabling it does not perturb the virtual-time schedule.
	Obs *obs.Obs
}

func (c Config) defaults() Config {
	if c.CheckpointEvery > 0 {
		c.Durable = true
	}
	if c.CrossEdgeFraction > 0 || c.ZipfSkew > 0 || c.Durable || len(c.ShardOwners) > 0 {
		c.Sharded = true
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.ThetaL == 0 && c.ThetaU == 0 {
		c.ThetaL, c.ThetaU = 0.40, 0.62
	}
	if c.OverlapMin == 0 {
		c.OverlapMin = 0.10
	}
	if c.WorkloadKeys == 0 {
		c.WorkloadKeys = 1000
	}
	return c
}

// cameraRuntime binds one camera to its edge, pipeline, and video. The
// mutable half (pacing, workload shape, placement, the running score) is
// guarded by mu: the feeder reads it per frame, timeline events rewrite it
// mid-run, frame goroutines score into it as they finalize.
type cameraRuntime struct {
	spec  CameraSpec
	shard int // logical shard, or -1 in unsharded fleets
	src   *core.WorkloadSource

	mu   sync.Mutex
	edge *EdgeNode
	pipe *core.Pipeline
	// gen captures the camera's frames one at a time, as they fall due;
	// only the feeder calls it.
	gen *video.Generator
	// tally scores each frame against the cloud model's labels as it
	// finalizes; outcomes keep the rest of it, without the label sets.
	tally    core.Tally
	outcomes []core.FrameOutcome
	done     []bool // outcome slot filled (vs dropped by an outage)
	fed      int    // frames scheduled so far (a prefix of the stream)
	dropped  int    // frames lost to an edge outage
	left     bool   // camera retired mid-run
	rate     float64
	nextAt   time.Duration
	interval time.Duration
	// migrateTo is a pending re-home: the feeder rebinds the pipeline to
	// that edge before the next frame, or MigrateCamera/feed apply it
	// directly when the feeder has already exited. -1 when none.
	migrateTo int
	// feeding marks a spawned feeder (guarded by Cluster.mu); feedDone
	// its exit (guarded by cam.mu).
	feeding   bool
	feedDone  bool
	crossFrac float64
	zipfSkew  float64
}

// Cluster is a constructed fleet, ready to Run (or to be driven event by
// event by a scenario runtime: Start, Schedule, StartCameras, Drain).
type Cluster struct {
	cfg        Config
	clk        vclock.Clock
	cloudModel detect.Model
	batcher    *Batcher
	transport  *transport.Sim
	edges      []*EdgeNode
	cams       []*cameraRuntime
	nShards    int
	// graph is the compiled Config.Graph every camera pipeline walks; nil
	// when the fleet runs the two-stage graph, which each edge builds over
	// its own uplink (EdgeNode.graph).
	graph *core.Graph

	// Sharded-keyspace state (nil/zero in unsharded fleets): the one
	// fleet-wide manager, the shared distributed-commit counters, and the
	// mutable shard map every route goes through.
	fleetMgr *txn.Manager
	dist     *twopc.DistStats
	shardMap *twopc.ShardMap

	// Fault-injection state (nil unless the fleet is durable): the
	// injector and the temp WAL dir to remove after the run.
	injector *faults.Injector
	walTemp  string

	// Dynamic-fleet state: fleet-level mutations (membership, outages,
	// phase marks) serialize on mu; migrations additionally serialize on
	// migMu (they block on fleet locks and must not interleave — two
	// concurrent handoffs of one shard would each plan from a stale
	// owner and could strand the keys).
	mu        sync.Mutex
	migMu     sync.Mutex
	startAt   time.Duration
	edgeOut   []bool
	phases    []phaseMark
	dyn       DynamicReport
	dynActive bool
	migSeq    uint64
	started   bool
	// retired marks edges drained out of the fleet by RetireEdge: no
	// placement targets them again.
	retired []bool
	// rrNext is the round-robin cursor over the live edges: how many
	// unpinned cameras have been placed.
	rrNext int
	// pending counts live feeders and scheduled events; background
	// tickers exit when it drains so Clock.Wait can return.
	pending int
}

// New validates the configuration, provisions the edges and the shared
// batcher, and places every camera.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.defaults()
	if cfg.Clock == nil {
		return nil, fmt.Errorf("cluster: Config.Clock is required")
	}
	if len(cfg.Cameras) == 0 {
		return nil, fmt.Errorf("cluster: at least one camera is required")
	}
	if len(cfg.Edges) == 0 {
		return nil, fmt.Errorf("cluster: at least one edge is required")
	}
	if cfg.ThetaL > cfg.ThetaU {
		return nil, fmt.Errorf("cluster: thresholds must satisfy θL ≤ θU, got (%.2f, %.2f)", cfg.ThetaL, cfg.ThetaU)
	}
	if cfg.CrossEdgeFraction < 0 || cfg.CrossEdgeFraction > 1 {
		return nil, fmt.Errorf("cluster: CrossEdgeFraction must be in [0, 1], got %g", cfg.CrossEdgeFraction)
	}
	if cfg.ZipfSkew < 0 {
		return nil, fmt.Errorf("cluster: ZipfSkew must be ≥ 0, got %g", cfg.ZipfSkew)
	}
	if cfg.OpCost < 0 {
		return nil, fmt.Errorf("cluster: OpCost must be ≥ 0, got %s", cfg.OpCost)
	}
	if cfg.WorkloadKeys < 0 {
		return nil, fmt.Errorf("cluster: WorkloadKeys must be ≥ 0, got %d", cfg.WorkloadKeys)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("cluster: CheckpointEvery must be ≥ 0, got %s", cfg.CheckpointEvery)
	}
	var graph *core.Graph
	if cfg.Graph != nil {
		var err error
		if graph, err = cfg.Graph.Compile(len(cfg.Edges), cfg.Seed); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}

	cloudModel := detect.YOLOv3Sim(detect.YOLO416, cfg.Seed)
	bcfg := cfg.Batcher
	if bcfg.Clock == nil {
		bcfg.Clock = cfg.Clock
	}
	if bcfg.Model == nil {
		bcfg.Model = cloudModel
	}
	if bcfg.Obs == nil {
		bcfg.Obs = cfg.Obs
	}

	batcher, err := NewBatcher(bcfg)
	if err != nil {
		return nil, err
	}
	tr := transport.NewSim()
	c := &Cluster{cfg: cfg, clk: cfg.Clock, cloudModel: cloudModel, batcher: batcher, transport: tr, graph: graph}
	if cfg.Obs != nil {
		// The transport keeps its own lifetime counters; a pull collector
		// mirrors them into the registry at scrape time.
		ttags := obs.Tags("transport", "sim")
		msgs := cfg.Obs.Counter(obs.MetricTransportMsgs, ttags)
		bytes := cfg.Obs.Counter(obs.MetricTransportBytes, ttags)
		cfg.Obs.Registry().RegisterCollector(func(*obs.Registry) {
			st := tr.Stats()
			msgs.Add(st.Messages - msgs.Value())
			bytes.Add(st.Bytes - bytes.Value())
		})
	}

	// Edge IDs name reports, transport paths, and — in a durable fleet —
	// the per-partition WAL files, so they must be unique (two edges
	// sharing one log would corrupt recovery) and free of path separators
	// (an ID like "../x" would escape the WAL directory).
	edgeIDs := make(map[string]bool, len(cfg.Edges))
	specs := make([]EdgeSpec, len(cfg.Edges))
	profiles := make([]transport.EdgeProfile, len(cfg.Edges))
	for i, es := range cfg.Edges {
		if es.ID == "" {
			es.ID = fmt.Sprintf("edge%d", i)
		}
		if strings.ContainsAny(es.ID, `/\`) || es.ID == "." || es.ID == ".." {
			return nil, fmt.Errorf("cluster: edge ID %q is not a valid file name", es.ID)
		}
		if edgeIDs[es.ID] {
			return nil, fmt.Errorf("cluster: duplicate edge ID %q", es.ID)
		}
		edgeIDs[es.ID] = true
		if es.Speed == 0 {
			es.Speed = 1
		}
		if es.Slots == 0 {
			es.Slots = core.DefaultEdgeSlots
		}
		specs[i] = es
		profiles[i] = transport.EdgeProfile{ID: es.ID, SameSite: es.SameSite}
	}
	if err := tr.Provision(profiles); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for i, es := range specs {
		e := &EdgeNode{
			Spec:       es,
			Model:      detect.TinyYOLOSim(cfg.Seed),
			ClientEdge: tr.ClientEdge(i),
			EdgeCloud:  tr.EdgeCloud(i),
			Compute:    vclock.NewSemaphore(cfg.Clock, es.Slots),
			graph:      graph,
			idx:        i,
		}
		if graph == nil {
			// The two-stage graph, its cloud node answered by the fleet's
			// shared batcher across this edge's uplink.
			e.graph = core.ModeCroesus.Graph(cfg.ThetaU, &EdgeUplink{
				Uplink:  core.Uplink{Clock: cfg.Clock, Link: e.EdgeCloud, EdgeSpeed: es.Speed},
				Batcher: batcher,
			})
		}
		c.edges = append(c.edges, e)
	}
	c.edgeOut = make([]bool, len(c.edges))
	c.retired = make([]bool, len(c.edges))
	c.nShards = len(cfg.ShardOwners)
	if cfg.Sharded && c.nShards == 0 {
		c.nShards = len(c.edges)
	}

	if cfg.Sharded {
		if err := c.provisionShards(); err != nil {
			c.closeDurability()
			return nil, err
		}
	} else {
		// Unsharded edges are standalone nodes, assembled as the real TCP
		// edge servers are.
		for _, e := range c.edges {
			asm := node.New(cfg.Clock, cfg.Protocol)
			if cfg.Obs != nil {
				asm.Observe(cfg.Obs, e.Spec.ID)
			}
			e.Store, e.Locks, e.Mgr, e.CC = asm.Store, asm.Locks, asm.Mgr, asm.CC
		}
	}

	camIDs := make(map[string]bool, len(cfg.Cameras))
	for i, cs := range cfg.Cameras {
		if cs.ID == "" {
			cs.ID = fmt.Sprintf("cam%d", i)
		}
		if camIDs[cs.ID] {
			c.closeDurability()
			return nil, fmt.Errorf("cluster: duplicate camera ID %q", cs.ID)
		}
		camIDs[cs.ID] = true
		if cs.Seed == 0 {
			cs.Seed = cfg.Seed + int64(i)
		}
		if cs.Frames == 0 {
			cs.Frames = 100
		}
		if n := len(cfg.ShardOwners); n > 0 && (cs.Shard < 0 || cs.Shard >= n) {
			c.closeDurability()
			return nil, fmt.Errorf("cluster: camera %q shard %d outside [0, %d)", cs.ID, cs.Shard, n)
		}
		idx, err := c.placeCamera(cs)
		if err != nil {
			c.closeDurability()
			return nil, err
		}
		if _, err := c.buildCamera(cs, idx, 0); err != nil {
			c.closeDurability()
			return nil, err
		}
	}
	return c, nil
}

// placeCamera resolves a camera's edge: its pin when set, the next live
// edge of the round-robin cursor otherwise. Retired edges are never
// placement targets: a pin to one is an error, and the cursor only cycles
// over the live edges.
func (c *Cluster) placeCamera(cs CameraSpec) (int, error) {
	if cs.Edge != "" {
		for i, e := range c.edges {
			if e.Spec.ID == cs.Edge {
				if c.retired[i] {
					return 0, fmt.Errorf("cluster: camera %q pinned to retired edge %q", cs.ID, cs.Edge)
				}
				return i, nil
			}
		}
		return 0, fmt.Errorf("cluster: camera %q pinned to unknown edge %q", cs.ID, cs.Edge)
	}
	live := make([]int, 0, len(c.edges))
	for i := range c.edges {
		if !c.retired[i] {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return 0, fmt.Errorf("cluster: no live edge to place camera %q on (all retired)", cs.ID)
	}
	idx := live[c.rrNext%len(live)]
	c.rrNext++
	return idx, nil
}

// chooser builds the sharded key chooser for one camera's current workload
// shape.
func (c *Cluster) chooser(home int, crossFrac, zipfSkew float64) workload.KeyChooser {
	if zipfSkew > 0 {
		return workload.ShardedZipf{
			Home:      home,
			Shards:    c.nShards,
			CrossProb: crossFrac,
			Zipf:      workload.NewZipf("item", c.cfg.WorkloadKeys, zipfSkew),
		}
	}
	return workload.ShardedUniform{
		Prefix:    "item",
		Home:      home,
		Shards:    c.nShards,
		N:         c.cfg.WorkloadKeys,
		CrossProb: crossFrac,
	}
}

// buildPipe assembles a camera's pipeline bound to one edge node — called
// at construction and again when a migration re-homes the camera.
func (c *Cluster) buildPipe(edge *EdgeNode, source core.TxnSource, camID string) (*core.Pipeline, error) {
	cfg := c.cfg
	// All cameras on one edge contend for the same inference pool, so they
	// share the edge's queue-depth gauge (the registry hands back the same
	// gauge for the same name+tags).
	var queueDepth *obs.Gauge
	if cfg.Obs != nil {
		queueDepth = cfg.Obs.Gauge(obs.MetricEdgeQueueDepth, obs.Tags("edge", edge.Spec.ID))
	}
	// Peer-tier graph nodes ride the inter-edge mesh: each edge ships to
	// its ring neighbour, the same paths sharded 2PC traffic uses.
	var peer transport.Path
	if c.graph != nil && len(c.edges) > 1 {
		peer = c.transport.Peer(edge.idx, (edge.idx+1)%len(c.edges))
	}
	return core.New(core.Config{
		Clock:       cfg.Clock,
		EdgeModel:   edge.Model,
		CloudModel:  c.cloudModel,
		EdgeSpeed:   edge.Spec.Speed,
		EdgeCompute: edge.Compute,
		ClientEdge:  edge.ClientEdge,
		EdgeCloud:   edge.EdgeCloud,
		ThetaL:      cfg.ThetaL,
		ThetaU:      cfg.ThetaU,
		OverlapMin:  cfg.OverlapMin,
		Source:      source,
		CC:          edge.CC,
		Mgr:         edge.Mgr,
		Graph:       edge.graph,
		PeerPath:    peer,
		Obs:         cfg.Obs,
		SpanCtx:     spanCtxHook(cfg.Obs, camID),
		TagKV:       []string{"edge", edge.Spec.ID, "camera", camID, "protocol", cfg.Protocol.String()},
		QueueDepth:  queueDepth,
	})
}

// spanCtxHook derives each frame's trace identity from the camera name
// and frame index. The hash is deterministic, so a sim run re-derives the
// same IDs every time and two processes tracing the same frame agree on
// its trace without coordination. Nil when tracing is off, which keeps
// the untraced pipeline (and its wire bytes) untouched.
func spanCtxHook(o *obs.Obs, camID string) func(f *video.Frame) obs.SpanContext {
	if o == nil {
		return nil
	}
	return func(f *video.Frame) obs.SpanContext {
		trace := obs.HashID("trace", camID, obs.U64(uint64(f.Index)))
		return obs.SpanContext{
			Trace: trace,
			Span:  obs.HashID("span", obs.U64(trace), obs.SpanFrameRoot),
		}
	}
}

// buildCamera provisions one camera on the edge at idx, with its first
// frame due at startAt, and registers it with the fleet.
func (c *Cluster) buildCamera(cs CameraSpec, idx int, startAt time.Duration) (*cameraRuntime, error) {
	edge := c.edges[idx]
	shard := -1
	if c.cfg.Sharded {
		shard = idx
		if len(c.cfg.ShardOwners) > 0 {
			shard = cs.Shard
		}
	}
	source := core.NewWorkloadSource(c.cfg.WorkloadKeys, cs.Seed)
	if c.graph != nil {
		// Shape the camera's transactions to the graph: one section per
		// node, so node k's labels commit section k.
		source.SetPlan(c.graph.SectionPlan())
	}
	if c.cfg.Sharded {
		// The camera draws keys from the fleet-wide sharded keyspace,
		// home-biased: CrossEdgeFraction of them belong to another shard
		// and make the transaction multi-partition.
		source.Keys = c.chooser(shard, c.cfg.CrossEdgeFraction, c.cfg.ZipfSkew)
	}
	if c.cfg.OpCost > 0 {
		source.Clk = c.cfg.Clock
		source.OpCost = c.cfg.OpCost
	}
	pipe, err := c.buildPipe(edge, source, cs.ID)
	if err != nil {
		return nil, fmt.Errorf("cluster: camera %q: %w", cs.ID, err)
	}
	cam := &cameraRuntime{
		spec:      cs,
		shard:     shard,
		src:       source,
		edge:      edge,
		pipe:      pipe,
		gen:       video.NewGenerator(cs.Profile, cs.Seed),
		tally:     core.Tally{QueryClass: cs.Profile.QueryClass, OverlapMin: c.cfg.OverlapMin},
		outcomes:  make([]core.FrameOutcome, cs.Frames),
		done:      make([]bool, cs.Frames),
		rate:      1,
		nextAt:    startAt,
		interval:  cs.Profile.FrameInterval(),
		migrateTo: -1,
		crossFrac: c.cfg.CrossEdgeFraction,
		zipfSkew:  c.cfg.ZipfSkew,
	}
	edge.Cameras = append(edge.Cameras, cs.ID)
	c.cams = append(c.cams, cam)
	return cam, nil
}

// provisionShards makes the freshly built edges one sharded database
// (node.NewFleet): edge i hosts partition i, a mesh of inter-edge links
// carries cross-edge lock and commit traffic, one fleet-wide txn.Manager
// (whose backend routes every key through the shard map) spans all edges,
// and each edge gets a ShardedCC bound to its home partition. A durable
// fleet (Durable or checkpointing) additionally gets per-partition
// write-ahead logs and a fault injector, so scripted crashes are
// survivable: committed state recovers from the log, retraction restores
// are journaled, and in-doubt 2PC blocks resolve against coordinator logs.
func (c *Cluster) provisionShards() error {
	n := len(c.edges)
	owners := c.cfg.ShardOwners
	if owners == nil {
		owners = make([]int, c.nShards)
		for s := range owners {
			owners[s] = s % n
		}
	}
	smap, err := twopc.NewShardMap(owners, n)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.shardMap = smap
	fleet := node.NewFleet(c.cfg.Clock, n, nil, smap, c.cfg.Protocol)
	c.fleetMgr, c.dist = fleet.Mgr, fleet.Stats
	if c.cfg.Obs != nil {
		ids := make([]string, n)
		for i, e := range c.edges {
			ids[i] = e.Spec.ID
		}
		fleet.Observe(c.cfg.Obs, ids)
	}
	parts := fleet.Parts
	for i, e := range c.edges {
		e.Peers = make([]transport.Path, n)
		for j := range c.edges {
			if j == i {
				continue
			}
			e.Peers[j] = c.transport.Peer(i, j)
		}
		e.Partition, e.Store, e.Locks = parts[i], parts[i].Store, parts[i].Locks
		e.Mgr, e.CC = fleet.Mgr, fleet.CC(i, e.Peers)
	}
	if !c.cfg.Durable {
		return nil
	}

	dir, err := os.MkdirTemp("", "croesus-wal-")
	if err != nil {
		return fmt.Errorf("cluster: wal dir: %w", err)
	}
	c.walTemp = dir
	linkRows := make([][]transport.Path, n)
	for i, e := range c.edges {
		// The log models durability inside one simulated process; skipping
		// fsync keeps big fleets fast without changing any outcome.
		if _, err := parts[i].OpenWAL(filepath.Join(dir, e.Spec.ID+".wal"), true); err != nil {
			return fmt.Errorf("cluster: wal for edge %s: %w", e.Spec.ID, err)
		}
		linkRows[i] = e.Peers
	}
	fleet.Journal()
	inj, err := faults.NewInjector(c.cfg.Clock, c.cfg.ReplayCost, parts, linkRows)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if c.cfg.Obs != nil {
		edgeTags := make([]string, n)
		for i, e := range c.edges {
			edgeTags[i] = obs.Tags("edge", e.Spec.ID)
		}
		inj.Bind(c.cfg.Obs, edgeTags)
	}
	c.injector = inj
	for _, e := range c.edges {
		e.CC.(*twopc.ShardedCC).Faults = inj
	}
	return nil
}

// closeDurability closes the partition logs and removes a temp WAL dir.
func (c *Cluster) closeDurability() {
	for _, e := range c.edges {
		if e.Partition != nil {
			e.Partition.CloseWAL()
		}
	}
	if c.walTemp != "" {
		os.RemoveAll(c.walTemp)
		c.walTemp = ""
	}
}

// Edges returns the provisioned edge nodes in declaration order.
func (c *Cluster) Edges() []*EdgeNode { return c.edges }

// FleetManager returns the fleet-wide transaction manager of a sharded
// cluster, or nil when each edge has a private one.
func (c *Cluster) FleetManager() *txn.Manager { return c.fleetMgr }

// ShardMap returns the sharded fleet's mutable shard→edge routing table,
// or nil in unsharded fleets.
func (c *Cluster) ShardMap() *twopc.ShardMap { return c.shardMap }

// DistStats returns a snapshot of the sharded fleet's distributed-commit
// counters (zero in unsharded fleets).
func (c *Cluster) DistStats() twopc.DistCounters {
	if c.dist == nil {
		return twopc.DistCounters{}
	}
	return c.dist.Snapshot()
}

// Injector returns the fleet's fault injector, or nil in a fleet that is
// not durable.
func (c *Cluster) Injector() *faults.Injector { return c.injector }

// Close releases the durability resources of a durable fleet (the
// partition logs and any auto-created WAL directory). The one-call Run
// closes automatically; New+Run callers close when done — after any
// post-run log inspection such as Injector().VerifyDurability().
func (c *Cluster) Close() { c.closeDurability() }

// Outcomes returns the per-frame outcomes of one camera after Run, or
// nil if the camera is unknown. Frames are in capture order; a camera that
// left mid-run (or lost frames to an edge outage) reports only the frames
// it actually captured. Label sets are scored when a frame finalizes and
// are not kept: EdgeDetections, InitialVisible, FinalVisible and Apologies
// are nil.
func (c *Cluster) Outcomes(cameraID string) []core.FrameOutcome {
	cam := c.findCam(cameraID)
	if cam == nil {
		return nil
	}
	cam.mu.Lock()
	defer cam.mu.Unlock()
	out := make([]core.FrameOutcome, 0, cam.fed)
	for i := 0; i < cam.fed; i++ {
		if cam.done[i] {
			out = append(out, cam.outcomes[i])
		}
	}
	return out
}

// Batcher returns the shared cloud validator.
func (c *Cluster) Batcher() *Batcher { return c.batcher }

// Start spawns the fleet's background machinery — the checkpoint ticker —
// on the clock. It runs first so the virtual-time tiebreak (and with it
// the whole run) is reproducible.
// Call exactly once, from the clock's driver, before Schedule and
// StartCameras; Run does all three.
func (c *Cluster) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		panic("cluster: Start called twice")
	}
	c.started = true
	c.startAt = c.clk.Now()
	c.mu.Unlock()
	if every := c.cfg.CheckpointEvery; every > 0 {
		c.clk.Go(func() {
			for {
				c.clk.Sleep(every)
				c.mu.Lock()
				idle := c.pending == 0
				c.mu.Unlock()
				if idle {
					return // fleet drained: stop ticking so Wait can return
				}
				for e := range c.edges {
					c.injector.Checkpoint(e)
				}
			}
		})
	}
}

// StartCameras spawns a feeder for every camera currently provisioned.
// Call once, after Start (and after any Schedule calls).
func (c *Cluster) StartCameras() {
	c.mu.Lock()
	cams := append([]*cameraRuntime{}, c.cams...)
	c.mu.Unlock()
	for _, cam := range cams {
		c.startFeeder(cam)
	}
}

// startFeeder is idempotent per camera: a camera joining at time zero could
// otherwise be fed both by its join event and by StartCameras.
func (c *Cluster) startFeeder(cam *cameraRuntime) {
	c.mu.Lock()
	if cam.feeding {
		c.mu.Unlock()
		return
	}
	cam.feeding = true
	c.pending++
	c.mu.Unlock()
	c.clk.Go(func() {
		defer c.workDone()
		c.feed(cam)
	})
}

func (c *Cluster) workAdd() {
	c.mu.Lock()
	c.pending++
	c.mu.Unlock()
}

func (c *Cluster) workDone() {
	c.mu.Lock()
	c.pending--
	c.mu.Unlock()
}

// feed drives one camera: each frame is scheduled at its due time (base
// interval over the camera's current rate scale), then processed on its own
// goroutine so captures overlap exactly as a continuously-capturing client.
// Between frames the feeder applies whatever the timeline changed —
// retirement, a pending migration's pipeline rebind, a new rate — and drops
// frames captured while the edge is in an (unsharded) outage.
func (c *Cluster) feed(cam *cameraRuntime) {
	clk := c.clk
	for i := 0; i < cam.spec.Frames; i++ {
		cam.mu.Lock()
		due := cam.nextAt
		left := cam.left
		cam.mu.Unlock()
		if left {
			break
		}
		if d := due - clk.Now(); d > 0 {
			clk.Sleep(d)
		}
		// Captured whether or not the edge is up, so the stream is
		// Generate's frame for frame.
		f := cam.gen.Next()
		cam.mu.Lock()
		if cam.left {
			cam.mu.Unlock()
			break
		}
		if cam.migrateTo >= 0 {
			c.rebindLocked(cam)
		}
		rate := cam.rate
		if rate <= 0 {
			rate = 1
		}
		cam.nextAt = due + time.Duration(float64(cam.interval)/rate)
		pipe := cam.pipe
		edgeIdx := cam.edge.idx
		cam.fed = i + 1
		down := c.edgeOutage(edgeIdx)
		if down {
			cam.dropped++
			cam.mu.Unlock()
			c.mu.Lock()
			c.dyn.FramesDropped++
			c.mu.Unlock()
			continue
		}
		cam.mu.Unlock()
		f.At = due
		i := i
		clk.Go(func() {
			out := pipe.ProcessFrame(f)
			ref := c.cloudModel.Detect(f).Detections
			cam.mu.Lock()
			cam.tally.Add(&out, ref)
			out.EdgeDetections, out.InitialVisible, out.FinalVisible, out.Apologies = nil, nil, nil, nil
			cam.outcomes[i] = out
			cam.done[i] = true
			cam.mu.Unlock()
		})
	}
	// A migration that raced the last frame (or arrives after it — see
	// MigrateCamera) must still re-home the bookkeeping so the report
	// places the camera on its destination edge.
	cam.mu.Lock()
	cam.feedDone = true
	if cam.migrateTo >= 0 {
		c.rebindLocked(cam)
	}
	cam.mu.Unlock()
}

// Drain blocks until every camera, frame, and scheduled event has finished,
// repairs the fleet (end-of-run recovery and in-doubt resolution), and
// scores the run. The caller must be the clock's driver.
func (c *Cluster) Drain() *ClusterReport {
	c.clk.Wait()
	// End-of-run repair: recover any edge still down and resolve every
	// outstanding in-doubt block, so the report describes a healed fleet.
	if c.injector != nil {
		c.injector.Finish()
	}
	// The makespan ends at the last frame's final commit, not at
	// clk.Now(): stale SLO timers may still run the clock forward after
	// the fleet has drained. It starts at Start's timestamp, not at
	// virtual-time zero — a caller-owned clock may have run before the
	// fleet did.
	end := c.startAt
	for _, cam := range c.cams {
		cam.mu.Lock()
		for i := 0; i < cam.fed; i++ {
			if !cam.done[i] {
				continue
			}
			if t := cam.outcomes[i].CapturedAt + cam.outcomes[i].FinalLatency; t > end {
				end = t
			}
		}
		cam.mu.Unlock()
	}
	return c.report(end-c.startAt, end)
}

// Run drives every camera's frames at their capture timestamps on the
// shared clock and blocks until the last final commit. The caller must
// be the clock's driver (outside the simulation). Run may be called
// once.
func (c *Cluster) Run() *ClusterReport {
	c.Start()
	c.StartCameras()
	return c.Drain()
}

// Run builds and runs a cluster in one call, releasing any durability
// resources when the run finishes.
func Run(cfg Config) (*ClusterReport, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Run(), nil
}
