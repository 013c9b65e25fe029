// The scenario runtime: compile a Scenario into a cluster.Config, then
// drive the cluster through the timeline. Fault events ride the cluster's
// deterministic fault injector (the old cluster.Config.Faults machinery,
// now an implementation detail behind the timeline); membership, migration,
// workload, outage, and checkpoint events become scheduled calls into the
// cluster's dynamic-fleet API. Every event also marks a phase boundary, so
// the report slices the run into before/during/after windows.
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

	clk vclock.Clock
	idx map[string]int // camera id → index in Scenario.Cameras (and shard)
}

// New validates the scenario, compiles it to a cluster configuration, and
// provisions the fleet on clk over the modeled links. The
// caller owns the clock (it must be the driver) and must Close the cluster
// when done.
func New(s *Scenario, clk vclock.Clock) (*Runtime, error) {
	return NewObserved(s, clk, nil, nil)
}

// NewObserved is New with an explicit transport (nil, what every caller
// passes: transport.NewSim; the cluster takes ownership of it and closes it
// with Close) and an observability layer threaded through the fleet (nil:
// disabled).
func NewObserved(s *Scenario, clk vclock.Clock, tr transport.Transport, o *obs.Obs) (*Runtime, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cams, idx, err := s.Cameras()
	if err != nil {
		return nil, err
	}
	cfg := s.clusterConfig(clk, cams, idx)
	cfg.Transport = tr
	cfg.Obs = o
	c, err := cluster.New(cfg)
	if err != nil {
		if tr != nil {
			tr.Close()
		}
		return nil, err
	}
	return &Runtime{Scenario: s, Cluster: c, clk: clk, idx: idx}, nil
}

// Run plays the timeline against the fleet and blocks until the run
// drains, returning the report. Call once, from the clock's driver.
func (rt *Runtime) Run() *cluster.ClusterReport {
	c := rt.Cluster
	c.Start()
	for _, ev := range rt.Scenario.SortedTimeline() {
		ev := ev
		c.Schedule(time.Duration(ev.At), ev.Label(), func() { rt.exec(ev) })
	}
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

// exec applies one timeline event to the live fleet. Reference errors were
// ruled out by validation; the errors that remain are modeled outcomes (a
// migration that never found its edges up exhausts its retries and is
// counted in the report), so exec never fails the run.
func (rt *Runtime) exec(ev Event) {
	c := rt.Cluster
	switch ev.Do {
	case KindCameraJoin:
		if err := c.AddCamera(rt.Scenario.cameraSpec(*ev.Join, rt.idx[ev.Join.ID])); err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", ev.Label(), err))
		}
	case KindCameraLeave:
		if err := c.StopCamera(ev.Camera); err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", ev.Label(), err))
		}
	case KindMigrateCamera:
		// A failed migration (edges down past the retry budget) is a
		// legitimate run outcome, counted in Dynamic.MigrationsFailed.
		_ = c.MigrateCamera(ev.Camera, ev.To)
	case KindWorkloadShift:
		if err := c.ShiftWorkload(ev.Camera, ev.Rate, ev.CrossEdgeFraction, ev.ZipfSkew); err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", ev.Label(), err))
		}
	case KindEdgeRetire:
		if err := c.RetireEdge(ev.Edge); err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", ev.Label(), err))
		}
	case KindEdgeCrash:
		if rt.Scenario.Sharded() {
			return // rides the fault injector, scheduled at Start
		}
		if err := c.SetEdgeOutage(ev.Edge, true); err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", ev.Label(), err))
		}
		if ev.RestartAfter > 0 {
			rt.clk.Sleep(time.Duration(ev.RestartAfter))
			c.SetEdgeOutage(ev.Edge, false)
		}
	case KindTwoPCCrash:
		// Armed in the fault plan at Start; the event here is the phase
		// boundary.
	case KindLinkFault:
		if ev.B == "cloud" {
			c.SetCloudLink(ev.A, true)
			if ev.Heal > ev.At {
				rt.clk.Sleep(time.Duration(ev.Heal - ev.At))
				c.SetCloudLink(ev.A, false)
			}
			return
		}
		// Edge↔edge partitions ride the fault injector.
	case KindCheckpoint:
		if err := c.CheckpointNow(ev.Edge); err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", ev.Label(), err))
		}
	}
}

// clusterConfig compiles the scenario's topology (and the fault half of
// its timeline) into the static cluster configuration. The scenario must
// have passed Validate.
func (s *Scenario) clusterConfig(clk vclock.Clock, cams []Camera, idx map[string]int) cluster.Config {
	t := s.Topology
	sharded := s.Sharded()

	edgeIdx := map[string]int{}
	edges := make([]cluster.EdgeSpec, len(t.Edges))
	for i, e := range t.Edges {
		edgeIdx[e.ID] = i
		edges[i] = cluster.EdgeSpec{ID: e.ID, Speed: e.Speed, Slots: e.Slots, SameSite: e.SameSite}
	}

	var owners []int
	if sharded {
		owners = make([]int, len(cams))
		for _, cam := range cams {
			owners[idx[cam.ID]] = edgeIdx[cam.Edge]
		}
	}

	specs := make([]cluster.CameraSpec, len(t.Cameras))
	for i, cam := range t.Cameras {
		specs[i] = s.cameraSpec(cam, idx[cam.ID])
	}

	// The timeline's fault events compile to a faults.Plan: the injector
	// executes them with WAL-backed recovery. Unsharded fleets keep
	// edge_crash and cloud link_fault events in the runtime instead.
	var plan *faults.Plan
	durable := t.Durable || t.CheckpointEvery > 0
	if sharded {
		p := faults.Plan{ReplayCost: time.Duration(t.ReplayCost)}
		for _, ev := range s.SortedTimeline() {
			switch ev.Do {
			case KindEdgeCrash:
				p.Crashes = append(p.Crashes, faults.EdgeCrash{
					Edge:         edgeIdx[ev.Edge],
					At:           time.Duration(ev.At),
					RestartAfter: time.Duration(ev.RestartAfter),
				})
			case KindTwoPCCrash:
				var point twopc.TwoPCPoint
				switch ev.Point {
				case PointParticipantPrepared:
					point = twopc.PointParticipantPrepared
				case PointAfterPrepare:
					point = twopc.PointAfterPrepare
				case PointAfterDecision:
					point = twopc.PointAfterDecision
				}
				p.TwoPC = append(p.TwoPC, faults.TwoPCCrash{
					Edge:         edgeIdx[ev.Edge],
					Point:        point,
					Round:        ev.Round,
					RestartAfter: time.Duration(ev.RestartAfter),
				})
			case KindLinkFault:
				if ev.B == "cloud" {
					continue // handled by the runtime on both fleet kinds
				}
				p.Links = append(p.Links, faults.LinkFault{
					A:    edgeIdx[ev.A],
					B:    edgeIdx[ev.B],
					At:   time.Duration(ev.At),
					Heal: time.Duration(ev.Heal),
				})
			case KindCheckpoint:
				durable = true
			}
		}
		if !p.Empty() {
			plan = &p
		}
	}

	shards := 0
	if sharded {
		shards = len(cams)
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
		Shards:            shards,
		ShardOwners:       owners,
		Faults:            plan,
		Durable:           durable,
		CheckpointEvery:   time.Duration(t.CheckpointEvery),
		Batcher: cluster.BatcherConfig{
			MaxBatch:   t.Batcher.MaxBatch,
			SLO:        time.Duration(t.Batcher.SLO),
			MaxPending: t.Batcher.MaxPending,
			CloudSpeed: t.Batcher.CloudSpeed,
		},
	}
}
