// Dynamic fleet operations: the primitives a scenario timeline drives.
// Cameras join, leave, migrate between edges (moving their logical shard
// through the fleet's shard map with a 2PC key handoff), and re-shape
// their workload mid-run; unsharded fleets take data-plane outages (frames
// dropped while an edge is dark) and cloud-uplink partitions; durable
// fleets checkpoint their write-ahead logs. Every operation runs on the
// fleet's virtual clock, so a scenario run is byte-deterministic.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"croesus/internal/obs"
	"croesus/internal/twopc"
)

// migOwnerBase is the id range migrations allocate lock owners and WAL
// transaction ids from — above every real transaction, so wait-die treats a
// migration as the youngest actor and logs cannot collide.
const migOwnerBase = uint64(1) << 62

// DynamicReport tallies the dynamic-fleet activity of one run: membership
// churn, shard migrations, unsharded outages, and the frames they cost.
type DynamicReport struct {
	// Joins and Leaves count cameras that entered or retired mid-run.
	Joins, Leaves int
	// Migrations counts completed camera migrations; MigrationsFailed
	// ones that exhausted their retry budget (the camera stayed put);
	// MigratedKeys the shard keys handed over across all of them.
	Migrations, MigrationsFailed int
	MigratedKeys                 int
	// Retired counts edges gracefully drained out of the fleet
	// (RetireEdge: cameras — and their shards — migrated away, then the
	// edge permanently excluded from placement).
	Retired int
	// WorkloadShifts counts mid-run workload re-shapes (rate, skew, or
	// cross-edge fraction).
	WorkloadShifts int
	// EdgeOutages / OutageRestores count unsharded data-plane outages;
	// FramesDropped the frames lost to them. CloudLinkOutages counts
	// edge→cloud uplink partitions.
	EdgeOutages, OutageRestores int
	CloudLinkOutages            int
	FramesDropped               int
}

func (d DynamicReport) empty() bool { return d == DynamicReport{} }

// phaseMark is one timeline boundary: report slices split on these.
type phaseMark struct {
	at    time.Duration
	label string
}

// PhaseReport is one slice of the run between consecutive timeline events:
// the frames captured in the window and their outcome profile, so a report
// shows how the fleet behaved before, during, and after each event.
type PhaseReport struct {
	// Label names the event that opened this phase ("start" for the
	// implicit first phase); Start and End bound it in virtual time.
	Label      string
	Start, End time.Duration
	// Frames counts frames captured in the window (fleet-wide);
	// Validated and Shed their cloud outcomes.
	Frames    int
	Validated int
	Shed      int
	// FinalP50 and FinalP99 are final-commit latency percentiles over the
	// window's frames.
	FinalP50 time.Duration
	FinalP99 time.Duration
}

// MarkPhase records a timeline boundary at the current virtual time; the
// report slices per-phase metrics on these marks.
func (c *Cluster) MarkPhase(label string) {
	c.mu.Lock()
	c.phases = append(c.phases, phaseMark{at: c.clk.Now(), label: label})
	c.dynActive = true
	c.mu.Unlock()
}

// Schedule runs fn at virtual time at on the fleet's clock, marking a phase
// boundary named label first. Call between Start and StartCameras so the
// spawn order — and with it the whole run — stays deterministic. The
// scenario runtime turns every timeline event into one Schedule call.
func (c *Cluster) Schedule(at time.Duration, label string, fn func()) {
	c.workAdd()
	c.clk.Go(func() {
		defer c.workDone()
		if d := at - c.clk.Now(); d > 0 {
			c.clk.Sleep(d)
		}
		if label != "" {
			c.MarkPhase(label)
		}
		if fn != nil {
			fn()
		}
	})
}

// camByID looks a camera up without locking; callers outside New hold (or
// take) c.mu via findCam because joins append to cams concurrently.
func (c *Cluster) camByID(id string) *cameraRuntime {
	for _, cam := range c.cams {
		if cam.spec.ID == id {
			return cam
		}
	}
	return nil
}

func (c *Cluster) findCam(id string) *cameraRuntime {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.camByID(id)
}

func (c *Cluster) edgeByID(id string) (int, error) {
	for i, e := range c.edges {
		if e.Spec.ID == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown edge %q", id)
}

// AddCamera provisions a camera mid-run (a CameraJoin event): the stream is
// placed (honoring its Edge pin), its first frame is captured now, and its
// feeder starts immediately. Before Start it simply extends the fleet.
func (c *Cluster) AddCamera(cs CameraSpec) error {
	c.mu.Lock()
	if cs.ID == "" {
		c.mu.Unlock()
		return fmt.Errorf("cluster: joining camera needs an ID")
	}
	if c.camByID(cs.ID) != nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: duplicate camera ID %q", cs.ID)
	}
	if cs.Seed == 0 {
		cs.Seed = c.cfg.Seed + int64(len(c.cams))
	}
	if cs.Frames == 0 {
		cs.Frames = 100
	}
	if n := len(c.cfg.ShardOwners); n > 0 && (cs.Shard < 0 || cs.Shard >= n) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: camera %q shard %d outside [0, %d)", cs.ID, cs.Shard, n)
	}
	idx, err := c.placeCamera(cs)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	cam, err := c.buildCamera(cs, idx, c.clk.Now())
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.dyn.Joins++
	c.dynActive = true
	started := c.started
	c.mu.Unlock()
	if started {
		c.startFeeder(cam)
	}
	return nil
}

// StopCamera retires a camera (a CameraLeave event): its feeder stops at
// the next frame boundary; frames already in flight finish normally and the
// report covers only what it captured.
func (c *Cluster) StopCamera(id string) error {
	cam := c.findCam(id)
	if cam == nil {
		return fmt.Errorf("cluster: unknown camera %q", id)
	}
	cam.mu.Lock()
	already := cam.left
	cam.left = true
	cam.mu.Unlock()
	if !already {
		c.mu.Lock()
		c.dyn.Leaves++
		c.dynActive = true
		c.mu.Unlock()
	}
	return nil
}

// ShiftWorkload re-shapes a camera's workload mid-run (a WorkloadShift
// event). Nil fields keep their current value: rate scales the capture rate
// (1 = the profile's FPS), crossFrac moves the cross-shard fraction, and
// zipfSkew the key skew (0 back to uniform). An empty camera ID shifts
// every camera. Workload shape applies from the next triggered transaction;
// rate from the next frame.
func (c *Cluster) ShiftWorkload(cameraID string, rate, crossFrac, zipfSkew *float64) error {
	var cams []*cameraRuntime
	if cameraID == "" {
		c.mu.Lock()
		cams = append([]*cameraRuntime{}, c.cams...)
		c.mu.Unlock()
	} else {
		cam := c.findCam(cameraID)
		if cam == nil {
			return fmt.Errorf("cluster: unknown camera %q", cameraID)
		}
		cams = []*cameraRuntime{cam}
	}
	if crossFrac != nil && (*crossFrac < 0 || *crossFrac > 1) {
		return fmt.Errorf("cluster: cross-edge fraction %g outside [0, 1]", *crossFrac)
	}
	if rate != nil && *rate <= 0 {
		return fmt.Errorf("cluster: rate scale must be > 0, got %g", *rate)
	}
	if zipfSkew != nil && *zipfSkew < 0 {
		return fmt.Errorf("cluster: zipf skew must be ≥ 0, got %g", *zipfSkew)
	}
	if (crossFrac != nil || zipfSkew != nil) && !c.cfg.Sharded {
		return fmt.Errorf("cluster: workload shape shifts need a sharded fleet")
	}
	for _, cam := range cams {
		cam.mu.Lock()
		if rate != nil {
			cam.rate = *rate
		}
		if crossFrac != nil {
			cam.crossFrac = *crossFrac
		}
		if zipfSkew != nil {
			cam.zipfSkew = *zipfSkew
		}
		if crossFrac != nil || zipfSkew != nil {
			cam.src.SetKeys(c.chooser(cam.shard, cam.crossFrac, cam.zipfSkew))
		}
		cam.mu.Unlock()
	}
	c.mu.Lock()
	c.dyn.WorkloadShifts++
	c.dynActive = true
	c.mu.Unlock()
	return nil
}

// MigrateCamera moves a camera to another edge (a MigrateCamera event). On
// a sharded fleet the camera's logical shard moves first — a quiesce-and-
// cutover key handoff committed with 2PC through the shard map
// (twopc.ShardMigration), durable when the fleet is — then the stream
// re-homes: the feeder rebinds the pipeline to the destination edge before
// its next frame. In-flight cross-edge transactions either finish on the
// old epoch (the handoff waits out their shard intents) or wake to a moved
// map and retry on the new routes. On an unsharded fleet only the stream
// moves; each edge keeps its private database.
func (c *Cluster) MigrateCamera(cameraID, toEdge string) error {
	cam := c.findCam(cameraID)
	if cam == nil {
		return fmt.Errorf("cluster: unknown camera %q", cameraID)
	}
	to, err := c.edgeByID(toEdge)
	if err != nil {
		return err
	}
	c.mu.Lock()
	toRetired := c.retired[to]
	c.mu.Unlock()
	if toRetired {
		return fmt.Errorf("cluster: cannot migrate camera %q to retired edge %q", cameraID, toEdge)
	}
	// One handoff at a time: two concurrent migrations would each plan
	// from a stale shard owner (the second could quiesce and copy an
	// already-emptied partition, stranding the keys wherever the first
	// put them).
	c.migMu.Lock()
	defer c.migMu.Unlock()

	if c.shardMap != nil && cam.shard >= 0 {
		from := c.shardMap.Owner(cam.shard)
		if from != to {
			c.mu.Lock()
			c.migSeq++
			owner := migOwnerBase + c.migSeq
			c.mu.Unlock()
			mg := &twopc.ShardMigration{
				Clk:   c.clk,
				Map:   c.shardMap,
				Parts: c.parts(),
				Shard: cam.shard,
				From:  from,
				To:    to,
				Link:  c.edges[from].Peers[to],
				Owner: owner,
			}
			if c.injector != nil {
				mg.Faults = c.injector
			}
			if rev := c.edges[to].Peers; rev != nil {
				mg.Reverse = rev[from]
			}
			if c.cfg.Obs != nil {
				mg.Obs = c.cfg.Obs
				mg.Tags = obs.Tags("camera", cameraID,
					"from", c.edges[from].Spec.ID, "to", c.edges[to].Spec.ID)
			}
			if err := mg.Run(); err != nil {
				c.mu.Lock()
				c.dyn.MigrationsFailed++
				c.dynActive = true
				c.mu.Unlock()
				return err
			}
			c.mu.Lock()
			c.dyn.MigratedKeys += mg.Moved
			c.mu.Unlock()
			if c.cfg.Obs != nil {
				c.cfg.Obs.Counter(obs.MetricMigrations, "").Inc()
			}
		}
	}

	cam.mu.Lock()
	cam.migrateTo = to
	if cam.feedDone || !c.isFeeding(cam) {
		// The feeder already exited (stream finished or camera retired)
		// or never started: nothing will consume the pending rebind, so
		// re-home the bookkeeping now — the report must place the camera
		// on its destination edge.
		c.rebindLocked(cam)
	}
	cam.mu.Unlock()
	c.mu.Lock()
	c.dyn.Migrations++
	c.dynActive = true
	c.mu.Unlock()
	return nil
}

// RetireEdge gracefully drains an edge out of the fleet (an EdgeRetire
// event) — the planned counterpart of a crash. Every camera homed on the
// edge migrates away through the ordinary MigrateCamera path (on a sharded
// fleet that is the full shard-map handoff: quiesce, 2PC key transfer,
// epoch bump), destinations rotating over the remaining live edges in
// index order so the drain is deterministic and balanced. The edge is then
// permanently excluded from placement — no join, policy pick, or later
// migration may target it. A camera whose handoff exhausted its retry
// budget stays put and is counted in MigrationsFailed; the edge still
// retires (the drain is best-effort, like any operator drain against a
// faulty fleet), so the report shows exactly what the retirement achieved.
func (c *Cluster) RetireEdge(edgeID string) error {
	i, err := c.edgeByID(edgeID)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.retired[i] {
		c.mu.Unlock()
		return fmt.Errorf("cluster: edge %q is already retired", edgeID)
	}
	var dests []int
	for j := range c.edges {
		if j != i && !c.retired[j] {
			dests = append(dests, j)
		}
	}
	if len(dests) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: retiring edge %q would leave the fleet empty", edgeID)
	}
	// Retire before draining, in the same critical section as the camera
	// snapshot: the drain's migrations take clock time, and a join or
	// migration landing on the edge mid-drain would be stranded on a
	// "retired" edge forever. Exclusion first makes the invariant hold
	// from this instant.
	cams := append([]string{}, c.edges[i].Cameras...)
	c.retired[i] = true
	c.dyn.Retired++
	c.dynActive = true
	c.mu.Unlock()
	for k, camID := range cams {
		// A failed handoff (edges down past the migration retry budget) is
		// a modeled outcome, already counted; the drain moves on.
		_ = c.MigrateCamera(camID, c.edges[dests[k%len(dests)]].Spec.ID)
	}
	return nil
}

// isFeeding reports whether cam's feeder has been spawned. Callers may
// hold cam.mu (the lock order is cam.mu → c.mu throughout).
func (c *Cluster) isFeeding(cam *cameraRuntime) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cam.feeding
}

func (c *Cluster) parts() []*twopc.Partition {
	out := make([]*twopc.Partition, len(c.edges))
	for i, e := range c.edges {
		out[i] = e.Partition
	}
	return out
}

// rebindLocked re-homes a camera onto its pending destination edge: a fresh
// pipeline bound to that edge's model, compute pool, links, and protocol
// (the workload source — and with it the key stream — carries over).
// Caller holds cam.mu.
func (c *Cluster) rebindLocked(cam *cameraRuntime) {
	to := cam.migrateTo
	cam.migrateTo = -1
	if to == cam.edge.idx {
		return
	}
	dest := c.edges[to]
	pipe, err := c.buildPipe(dest, cam.src, cam.spec.ID)
	if err != nil {
		// The destination edge was validated at migration time; a build
		// failure here is a harness bug, not a modeled fault.
		panic(fmt.Sprintf("cluster: rebinding camera %q: %v", cam.spec.ID, err))
	}
	c.mu.Lock()
	old := cam.edge
	for i, id := range old.Cameras {
		if id == cam.spec.ID {
			old.Cameras = append(old.Cameras[:i], old.Cameras[i+1:]...)
			break
		}
	}
	dest.Cameras = append(dest.Cameras, cam.spec.ID)
	c.mu.Unlock()
	cam.edge = dest
	cam.pipe = pipe
}

// SetEdgeOutage darkens (or restores) an unsharded edge's data plane: while
// down, frames captured by its cameras are dropped and counted — the
// availability cost of a fail-stop without the durable-partition machinery.
// It reports whether the edge changed state: darkening a dark edge (or
// restoring a lit one) is a no-op. Sharded fleets crash edges through the
// fault injector instead, which models the transaction-level consequences.
func (c *Cluster) SetEdgeOutage(edgeID string, down bool) (bool, error) {
	i, err := c.edgeByID(edgeID)
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.edgeOut[i] == down {
		return false, nil
	}
	c.edgeOut[i] = down
	if down {
		c.dyn.EdgeOutages++
	} else {
		c.dyn.OutageRestores++
	}
	c.dynActive = true
	return true, nil
}

func (c *Cluster) edgeOutage(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.edgeOut[i]
}

// SetCloudLink partitions (or heals) one edge's cloud uplink: while down,
// its validate-interval frames are lost in transit and finalize locally
// with the edge answer — exactly the paper's timeout path.
func (c *Cluster) SetCloudLink(edgeID string, down bool) error {
	i, err := c.edgeByID(edgeID)
	if err != nil {
		return err
	}
	wasDown := c.edges[i].EdgeCloud.IsDown()
	c.edges[i].EdgeCloud.SetDown(down)
	if down && !wasDown {
		c.mu.Lock()
		c.dyn.CloudLinkOutages++
		c.dynActive = true
		c.mu.Unlock()
	}
	return nil
}

// CheckpointNow checkpoints one edge's write-ahead log (or every edge's,
// with an empty ID) — the Checkpoint timeline event. Requires a durable
// fleet.
func (c *Cluster) CheckpointNow(edgeID string) error {
	if c.injector == nil {
		return fmt.Errorf("cluster: checkpointing needs a durable fleet (Config.Durable)")
	}
	if edgeID == "" {
		for e := range c.edges {
			c.injector.Checkpoint(e)
		}
		return nil
	}
	i, err := c.edgeByID(edgeID)
	if err != nil {
		return err
	}
	c.injector.Checkpoint(i)
	return nil
}

// phaseReports slices the run's outcomes on the recorded phase marks.
func (c *Cluster) phaseReports(end time.Duration) []PhaseReport {
	c.mu.Lock()
	marks := append([]phaseMark{}, c.phases...)
	c.mu.Unlock()
	if len(marks) == 0 {
		return nil
	}
	sort.SliceStable(marks, func(i, j int) bool { return marks[i].at < marks[j].at })
	bounds := []phaseMark{{at: c.startAt, label: "start"}}
	for _, m := range marks {
		if m.at == bounds[len(bounds)-1].at {
			// Coincident events merge into one boundary.
			bounds[len(bounds)-1].label += "+" + m.label
			continue
		}
		bounds = append(bounds, m)
	}
	out := make([]PhaseReport, len(bounds))
	for i, b := range bounds {
		out[i] = PhaseReport{Label: b.label, Start: b.at, End: end}
		if i+1 < len(bounds) {
			out[i].End = bounds[i+1].at
		}
	}
	return out
}
