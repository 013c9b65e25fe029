// The scenario runtime: compile a Scenario into a cluster.Config, then
// play the timeline against the cluster. Runtime is the simulated (and
// scaled wall-clock) deployment's Driver: Play schedules every event on
// the cluster's clock, and its verbs call the cluster's dynamic-fleet API
// or, on a durable sharded fleet, the fault injector's Crash, Restart,
// SetLink and Arm at the event's own instant. Every event also marks a
// phase boundary, so the report slices the run into before/during/after
// windows.
package scenario

import (
	"fmt"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/faults"
	"croesus/internal/node"
	"croesus/internal/obs"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/vclock"
)

// Options select the clock a scenario runs on. The zero value is the
// virtual clock.
type Options struct {
	// TimeScale > 0 runs the fleet on a wall clock (vclock.NewScaledReal)
	// with every modeled latency — link transfers, inference sleeps, frame
	// pacing, SLO deadlines, the event timeline — multiplied by it: 0.05
	// runs a 20-second scenario in about one real second, 1 runs at full
	// fidelity. Goroutines then truly overlap, so reports are not
	// byte-pinned. 0 is the virtual clock: deterministic, byte-identical
	// replay.
	TimeScale float64
	// Obs, when set, threads the observability layer through the fleet:
	// per-stage spans to its tracer, fleet counters and latency histograms
	// into its registry. On the virtual clock the resulting trace is
	// deterministic.
	Obs *obs.Obs
}

// Runtime is a compiled scenario bound to a cluster, ready to Run. Tests
// reach through Cluster for post-run inspection (Injector().
// VerifyDurability(), ShardMap(), Outcomes()).
type Runtime struct {
	Scenario *Scenario
	Cluster  *cluster.Cluster

	clk   vclock.Clock
	idx   map[string]int // camera id → index in Scenario.Cameras (and shard)
	edges map[string]int // edge id → cluster index
}

// New validates the scenario, compiles it to a cluster configuration, and
// provisions the fleet on clk over the modeled links. The
// caller owns the clock (it must be the driver) and must Close the cluster
// when done.
func New(s *Scenario, clk vclock.Clock) (*Runtime, error) {
	return NewObserved(s, clk, nil, nil)
}

// NewObserved is New with an observability layer threaded through the
// fleet (nil: disabled). The third argument is unused and should be nil:
// the cluster always provisions its own transport.Sim over the modeled
// links.
func NewObserved(s *Scenario, clk vclock.Clock, _ *transport.Sim, o *obs.Obs) (*Runtime, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cams, idx, err := s.Cameras()
	if err != nil {
		return nil, err
	}
	cfg, edges := s.clusterConfig(clk, cams, idx)
	cfg.Obs = o
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Runtime{Scenario: s, Cluster: c, clk: clk, idx: idx, edges: edges}, nil
}

// Run plays the timeline against the fleet and blocks until the run
// drains, returning the report. Call once, from the clock's driver.
func (rt *Runtime) Run() *cluster.ClusterReport {
	c := rt.Cluster
	c.Start()
	Play(rt.Scenario, rt)
	c.StartCameras()
	return c.Drain()
}

// Run builds and runs a scenario in one call on a fresh virtual clock,
// releasing the fleet's durability resources when the run finishes.
func Run(s *Scenario) (*cluster.ClusterReport, error) {
	return RunWith(s, Options{})
}

// RunWith runs one scenario on the clock o selects: the virtual clock (Run,
// byte-identical replay) or, with TimeScale > 0, the same compiled cluster
// on a scaled wall clock over the same modeled links.
func RunWith(s *Scenario, o Options) (*cluster.ClusterReport, error) {
	var clk vclock.Clock = vclock.NewSim()
	if o.TimeScale > 0 {
		clk = vclock.NewScaledReal(o.TimeScale)
	}
	rt, err := NewObserved(s, clk, nil, o.Obs)
	if err != nil {
		return nil, err
	}
	defer rt.Cluster.Close()
	return rt.Run(), nil
}

// cameraSpec compiles one of the scenario's cameras, at its index from
// Cameras, to the cluster's form: topology cameras at construction, joins
// at their event.
func (s *Scenario) cameraSpec(cam Camera, index int) cluster.CameraSpec {
	p, err := ProfileFor(cam.Profile)
	if err != nil {
		panic(err) // validated
	}
	return cluster.CameraSpec{
		ID:      cam.ID,
		Profile: p,
		Seed:    s.CameraSeed(cam, index),
		Frames:  cam.Frames,
		Edge:    cam.Edge,
		Shard:   index,
	}
}

// must panics on an error a validated scenario cannot produce.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
}

// Schedule implements Driver on the cluster's clock: an event's undo
// sleeps on the event's own goroutine.
func (rt *Runtime) Schedule(at time.Duration, label string, fn func() (time.Duration, func())) {
	rt.Cluster.Schedule(at, label, func() {
		if after, undo := fn(); undo != nil {
			rt.clk.Sleep(after)
			undo()
		}
	})
}

// Join implements Driver.
func (rt *Runtime) Join(cam Camera) {
	must(rt.Cluster.AddCamera(rt.Scenario.cameraSpec(cam, rt.idx[cam.ID])))
}

// Stop implements Driver.
func (rt *Runtime) Stop(camera string) { must(rt.Cluster.StopCamera(camera)) }

// Migrate implements Driver. A failed migration (edges down past the retry
// budget) is a legitimate run outcome, counted in Dynamic.MigrationsFailed.
func (rt *Runtime) Migrate(camera, to string) { _ = rt.Cluster.MigrateCamera(camera, to) }

// Shift implements Driver.
func (rt *Runtime) Shift(camera string, rate, crossEdgeFraction, zipfSkew *float64) {
	must(rt.Cluster.ShiftWorkload(camera, rate, crossEdgeFraction, zipfSkew))
}

// Retire implements Driver.
func (rt *Runtime) Retire(edge string) { must(rt.Cluster.RetireEdge(edge)) }

// Crash implements Driver: a durable fleet fail-stops the edge's partition
// through the fault injector; an unsharded one darkens its data plane.
func (rt *Runtime) Crash(edge string) bool {
	if inj := rt.Cluster.Injector(); inj != nil {
		return inj.Crash(rt.edges[edge])
	}
	down, err := rt.Cluster.SetEdgeOutage(edge, true)
	must(err)
	return down
}

// Restart implements Driver: WAL recovery on a durable fleet, the end of
// the outage on an unsharded one.
func (rt *Runtime) Restart(edge string) {
	if inj := rt.Cluster.Injector(); inj != nil {
		inj.Restart(rt.edges[edge])
		return
	}
	_, err := rt.Cluster.SetEdgeOutage(edge, false)
	must(err)
}

// ArmTwoPCCrash implements Driver on the fault injector (Validate admits
// twopc_crash only on sharded fleets, which it makes durable).
func (rt *Runtime) ArmTwoPCCrash(edge, point string, round int, restartAfter time.Duration) {
	p := twopc.PointParticipantPrepared
	switch point {
	case PointAfterPrepare:
		p = twopc.PointAfterPrepare
	case PointAfterDecision:
		p = twopc.PointAfterDecision
	}
	rt.Cluster.Injector().Arm(faults.TwoPCCrash{Edge: rt.edges[edge], Point: p, Round: round, RestartAfter: restartAfter})
}

// SetLink implements Driver: the cloud uplink through the cluster, a peer
// path through the fault injector.
func (rt *Runtime) SetLink(a, b string, down bool) {
	if b == "cloud" {
		must(rt.Cluster.SetCloudLink(a, down))
		return
	}
	rt.Cluster.Injector().SetLink(rt.edges[a], rt.edges[b], down)
}

// Checkpoint implements Driver.
func (rt *Runtime) Checkpoint(edge string) { must(rt.Cluster.CheckpointNow(edge)) }

// clusterConfig compiles the scenario's topology into the static cluster
// configuration, returning it with the edge id → cluster index map. The
// scenario must have passed Validate.
func (s *Scenario) clusterConfig(clk vclock.Clock, cams []Camera, idx map[string]int) (cluster.Config, map[string]int) {
	t := s.Topology
	sharded := s.Sharded()

	edgeIdx := map[string]int{}
	edges := make([]cluster.EdgeSpec, len(t.Edges))
	for i, e := range t.Edges {
		edgeIdx[e.ID] = i
		edges[i] = cluster.EdgeSpec{ID: e.ID, Speed: e.Speed, Slots: e.Slots, SameSite: e.SameSite}
	}

	// Per-camera shards start on their cameras' edges; per-edge shards are
	// the cluster's default layout (nil owners, one shard per edge).
	var owners []int
	if sharded && t.Partition != PartitionEdge {
		owners = make([]int, len(cams))
		for _, cam := range cams {
			owners[idx[cam.ID]] = edgeIdx[cam.Edge]
		}
	}

	specs := make([]cluster.CameraSpec, len(t.Cameras))
	for i, cam := range t.Cameras {
		specs[i] = s.cameraSpec(cam, idx[cam.ID])
	}

	// A sharded fleet that crashes or partitions edges needs durable
	// partitions and the fault injector that recovers them.
	durable := t.Durable || t.CheckpointEvery > 0
	for _, ev := range s.Timeline {
		switch ev.Do {
		case KindEdgeCrash, KindTwoPCCrash, KindCheckpoint:
			durable = durable || sharded
		case KindLinkFault:
			durable = durable || ev.B != "cloud"
		}
	}

	proto, _ := node.ParseProtocol(t.Protocol) // validated
	return cluster.Config{
		Clock:             clk,
		Cameras:           specs,
		Edges:             edges,
		Seed:              s.seed(),
		ThetaL:            t.ThetaL,
		ThetaU:            t.ThetaU,
		OverlapMin:        t.OverlapMin,
		WorkloadKeys:      t.WorkloadKeys,
		OpCost:            time.Duration(t.OpCost),
		Sharded:           sharded,
		Graph:             t.Graph,
		CrossEdgeFraction: t.CrossEdgeFraction,
		Protocol:          proto,
		ZipfSkew:          t.ZipfSkew,
		ShardOwners:       owners,
		Durable:           durable,
		CheckpointEvery:   time.Duration(t.CheckpointEvery),
		ReplayCost:        time.Duration(t.ReplayCost),
		Batcher: cluster.BatcherConfig{
			MaxBatch:   t.Batcher.MaxBatch,
			SLO:        time.Duration(t.Batcher.SLO),
			MaxPending: t.Batcher.MaxPending,
			CloudSpeed: t.Batcher.CloudSpeed,
		},
	}, edgeIdx
}
