package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/netsim"
	"croesus/internal/obs/collect"
	"croesus/internal/scenario"
	"croesus/internal/transport"
	"croesus/internal/vclock"
	"croesus/internal/wire"
)

// Options configures a fleet run.
type Options struct {
	// WorkDir holds WALs, ready files, logs, reports, and traces
	// (default: a fresh temp dir).
	WorkDir string
	// TimeScale compresses modeled time on every process's wall clock
	// (0 or 1: full fidelity). All processes run the same scale, so
	// their traces stay alignable.
	TimeScale float64
	// Shaped applies the sim's modeled link parameters (latency +
	// bandwidth token bucket) to each edge's client and cloud paths.
	Shaped bool
	// Trace collects per-process span streams and merges them into one
	// aligned distributed trace in the result.
	Trace bool
	// FrameTimeout bounds one frame's wall wait at the client (default
	// 30s).
	FrameTimeout time.Duration
	Logf         func(format string, args ...any)
}

// Result is a fleet run's full outcome: the merged ClusterReport plus the
// raw per-process reports and the collected distributed trace.
type Result struct {
	Report  *cluster.ClusterReport
	Clients []ClientReport
	Edges   []EdgeReport
	Cloud   *CloudReport

	// DurabilityOK aggregates the per-edge WAL verify: every edge alive
	// at the end of the run replays to exactly its live store.
	DurabilityOK bool

	// Trace is the aligned multi-process trace (with Options.Trace);
	// PrunedSpans counts orphans dropped because a SIGKILLed process lost
	// its span tail; Incidents is the offline watchdog's verdict over the
	// merged stream.
	Trace       *collect.Merged
	PrunedSpans int
	Incidents   []collect.Incident
	TraceFiles  []string
	WorkDir     string
}

// ValidateForFleet checks that a scenario can run on the multi-process
// fleet: standalone edge processes share no keyspace, so sharded
// scenarios (cross-edge transactions, key-shape shifts, 2PC crash points,
// peer-link faults) and inference graphs need the in-process deployments;
// and no process flag carries an edge's speed or topology.op_cost, so a
// scenario that sets them would run differently on processes than on the
// sim.
func ValidateForFleet(s *scenario.Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	t := s.Topology
	if t.Sharded || t.CrossEdgeFraction > 0 || t.ZipfSkew > 0 {
		return fmt.Errorf("fleet: sharded keyspaces need the in-process deployments (sim or tcp) — standalone edge processes share no database")
	}
	if t.Graph != nil {
		return fmt.Errorf("fleet: inference graphs need the in-process deployments (sim or tcp)")
	}
	if t.OpCost != 0 {
		return fmt.Errorf("fleet: op_cost needs the in-process deployments — an edge process charges no clock time per database operation")
	}
	for _, e := range t.Edges {
		if e.Speed != 0 && e.Speed != 1 {
			return fmt.Errorf("fleet: edge %q speed %g needs the in-process deployments — an edge process runs at speed 1", e.ID, e.Speed)
		}
	}
	for _, ev := range s.Timeline {
		switch ev.Do {
		case scenario.KindTwoPCCrash:
			return fmt.Errorf("fleet: twopc_crash needs the in-process sharded fleet")
		case scenario.KindLinkFault:
			if ev.B != "cloud" {
				return fmt.Errorf("fleet: edge↔edge link faults need the in-process sharded fleet; fault the cloud uplink with b: \"cloud\"")
			}
		case scenario.KindWorkloadShift:
			if ev.CrossEdgeFraction != nil || ev.ZipfSkew != nil {
				return fmt.Errorf("fleet: workload_shift of cross_edge_fraction or zipf_skew reshapes sharded keys, which standalone edge processes do not share")
			}
		}
	}
	return nil
}

// fleetEdge is one edge process under orchestration.
type fleetEdge struct {
	id       string
	addr     string // fixed data address (respawns rebind it)
	ctl      *ControlClient
	p        *proc
	respawn  func(addr string) (*proc, *ReadyInfo, error)
	trace    string
	sameSite bool
	retired  bool
	dark     bool // crashed, not (yet) respawned
	// killedAt and crash describe the latest crash: when the SIGKILL
	// landed and the index of its record in fleetRun.crashes.
	killedAt time.Time
	crash    int
}

// fleetRun is the orchestrator's mutable state for one run, and the
// process deployment's scenario.Driver: scenario.Play plays the timeline
// through Schedule, one event after another at its scaled wall instant,
// and each verb acts on the processes through their control channels,
// signals and respawns.
type fleetRun struct {
	s    *scenario.Scenario
	o    Options
	ts   float64
	dir  string
	logf func(string, ...any)

	mu      sync.Mutex
	edges   []*fleetEdge
	byID    map[string]*fleetEdge
	cloud   *ControlClient
	cloudP  *proc
	cloudA  string // cloud data address
	cams    map[string]*procCam
	camEdge map[string]string // camera id → edge id
	camIdx  map[string]int
	camAll  []scenario.Camera
	rrNext  int // round-robin placement cursor
	crashes []crashRecord
	dyn     cluster.DynamicReport
	clk     vclock.Clock // the timeline's clock: scaled wall time from start
	start   time.Time
}

// scaled converts a modeled duration to wall time under the run's scale.
func (f *fleetRun) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * f.ts)
}

// Run deploys the scenario on real processes, plays its timeline, and
// collects the merged report. Every process is this executable, re-run
// with its role (cloud, edge or client) as the first argument, so the
// executable must serve those subcommands as cmd/croesus does.
func Run(s *scenario.Scenario, o Options) (*Result, error) {
	if err := ValidateForFleet(s); err != nil {
		return nil, err
	}
	ts := o.TimeScale
	if ts <= 0 {
		ts = 1
	}
	dir := o.WorkDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "croesus-fleet-"); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if o.FrameTimeout <= 0 {
		o.FrameTimeout = 30 * time.Second
	}
	f := &fleetRun{
		s: s, o: o, ts: ts, dir: dir, logf: logf,
		byID:    map[string]*fleetEdge{},
		cams:    map[string]*procCam{},
		camEdge: map[string]string{},
	}
	var err error
	f.camAll, f.camIdx, err = s.Cameras()
	if err != nil {
		return nil, err
	}
	if err := f.spawnFleet(); err != nil {
		f.teardown()
		return nil, err
	}
	res := f.play()
	f.teardown()
	return res, nil
}

// spawnFleet launches the cloud, then every edge, discovering addresses
// through ready files.
func (f *fleetRun) spawnFleet() error {
	t := f.s.Topology
	seed := f.s.Seed
	if seed == 0 {
		seed = 42
	}

	// Cloud first: the edges dial it at startup.
	{
		os.Remove(filepath.Join(f.dir, "cloud.ready")) // a reused workdir's is stale
		args := []string{
			"-addr", "127.0.0.1:0",
			"-seed", strconv.FormatInt(seed, 10),
			"-timescale", fmt.Sprintf("%g", f.ts),
			"-control", "127.0.0.1:0",
			"-ready-file", filepath.Join(f.dir, "cloud.ready"),
		}
		if b := t.Batcher; b.MaxBatch > 0 {
			args = append(args, "-batch", strconv.Itoa(b.MaxBatch))
		}
		if b := t.Batcher; b.SLO > 0 {
			args = append(args, "-slo", time.Duration(b.SLO).String())
		}
		if b := t.Batcher; b.MaxPending > 0 {
			args = append(args, "-pending", strconv.Itoa(b.MaxPending))
		}
		if b := t.Batcher; b.CloudSpeed > 0 {
			args = append(args, "-cloud-speed", fmt.Sprintf("%g", b.CloudSpeed))
		}
		trace := ""
		if f.o.Trace {
			trace = filepath.Join(f.dir, "trace-cloud.jsonl")
			args = append(args, "-trace", trace)
		}
		p, err := startProc("cloud", "cloud", args, filepath.Join(f.dir, "cloud.log"))
		if err != nil {
			return err
		}
		f.cloudP = p
		info, err := waitReady(filepath.Join(f.dir, "cloud.ready"), 15*time.Second, p.alive)
		if err != nil {
			return err
		}
		f.cloudA = info.Addr
		if f.cloud, err = DialControl(info.Control); err != nil {
			return fmt.Errorf("fleet: cloud control: %w", err)
		}
		f.logf("fleet: cloud on %s (control %s)", info.Addr, info.Control)
	}

	for i, e := range t.Edges {
		fe := &fleetEdge{id: e.ID, sameSite: e.SameSite}
		if f.o.Trace {
			fe.trace = filepath.Join(f.dir, "trace-edge-"+e.ID+".jsonl")
		}
		fe.respawn = func(addr string) (*proc, *ReadyInfo, error) {
			ready := filepath.Join(f.dir, fmt.Sprintf("edge-%s.ready", e.ID))
			os.Remove(ready)
			args := []string{
				"-addr", addr,
				"-id", e.ID,
				"-cloud", f.cloudA,
				"-seed", strconv.FormatInt(seed, 10),
				"-timescale", fmt.Sprintf("%g", f.ts),
				"-control", "127.0.0.1:0",
				"-ready-file", ready,
				"-wal", filepath.Join(f.dir, fmt.Sprintf("edge-%s.wal", e.ID)),
				"-wal-nosync",
			}
			if t.ThetaL > 0 || t.ThetaU > 0 {
				// As in the sim, setting either threshold sets both.
				args = append(args, "-thetal", fmt.Sprintf("%g", t.ThetaL), "-thetau", fmt.Sprintf("%g", t.ThetaU))
			}
			if t.OverlapMin > 0 {
				args = append(args, "-overlap", fmt.Sprintf("%g", t.OverlapMin))
			}
			if t.Protocol != "" {
				args = append(args, "-protocol", t.Protocol)
			}
			if e.Slots > 0 {
				args = append(args, "-slots", strconv.Itoa(e.Slots))
			}
			if t.WorkloadKeys > 0 {
				args = append(args, "-keys", strconv.Itoa(t.WorkloadKeys))
			}
			if f.o.Shaped {
				client, cloud := edgeLinkSpecs(e.SameSite)
				args = append(args, "-shape-client", client, "-shape-cloud", cloud)
			}
			if fe.trace != "" {
				args = append(args, "-trace", fe.trace)
			}
			p, err := startProc("edge-"+e.ID, "edge", args,
				filepath.Join(f.dir, fmt.Sprintf("edge-%s.log", e.ID)))
			if err != nil {
				return nil, nil, err
			}
			info, err := waitReady(ready, 15*time.Second, p.alive)
			if err != nil {
				p.kill()
				return nil, nil, err
			}
			return p, info, nil
		}
		p, info, err := fe.respawn("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("fleet: edge %s: %w", e.ID, err)
		}
		fe.p, fe.addr = p, info.Addr
		if fe.ctl, err = DialControl(info.Control); err != nil {
			return fmt.Errorf("fleet: edge %s control: %w", e.ID, err)
		}
		f.edges = append(f.edges, fe)
		f.byID[e.ID] = fe
		f.logf("fleet: edge %s (#%d) on %s (control %s)", e.ID, i, info.Addr, info.Control)
	}
	return nil
}

// edgeLinkSpecs renders the sim's modeled link parameters for one edge as
// -shape-client / -shape-cloud flag values.
func edgeLinkSpecs(sameSite bool) (client, cloud string) {
	cl := netsim.ClientEdgeLink()
	ec := netsim.EdgeCloudCrossCountry()
	if sameSite {
		ec = netsim.EdgeCloudSameSite()
	}
	return transport.FormatLinkSpec(cl), transport.FormatLinkSpec(ec)
}

// placeCamera picks the camera's edge: its pinned one, or round-robin
// over edges still accepting placements. Caller holds f.mu.
func (f *fleetRun) placeCamera(cam scenario.Camera) *fleetEdge {
	if cam.Edge != "" {
		return f.byID[cam.Edge]
	}
	for range f.edges {
		fe := f.edges[f.rrNext%len(f.edges)]
		f.rrNext++
		if !fe.retired {
			return fe
		}
	}
	return f.edges[0]
}

// startCamera launches one camera stream on its edge.
func (f *fleetRun) startCamera(cam scenario.Camera) error {
	f.mu.Lock()
	fe := f.placeCamera(cam)
	f.mu.Unlock()
	prof, err := scenario.ProfileFor(cam.Profile)
	if err != nil {
		return err
	}
	seed := f.s.CameraSeed(cam, f.camIdx[cam.ID])
	frames := cam.Frames
	if frames <= 0 {
		frames = 100
	}
	h, err := f.startProcCam(cam.ID, fe.addr, prof.Name, seed, frames)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.cams[cam.ID] = h
	f.camEdge[cam.ID] = fe.id
	f.mu.Unlock()
	return nil
}

// play brings up the cameras, plays the timeline at scaled wall time,
// waits for the streams to drain, and collects everything.
func (f *fleetRun) play() *Result {
	f.start = time.Now()
	f.clk = vclock.NewScaledReal(f.ts)

	// Topology cameras start at time zero.
	for _, cam := range f.s.Topology.Cameras {
		if err := f.startCamera(cam); err != nil {
			f.logf("fleet: camera %s: %v", cam.ID, err)
		}
	}

	// Periodic WAL checkpointing, when the scenario asks for it.
	stopTick := make(chan struct{})
	if every := time.Duration(f.s.Topology.CheckpointEvery); every > 0 {
		tick := time.NewTicker(f.scaled(every))
		f.clk.Go(func() {
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					f.Checkpoint("")
				case <-stopTick:
					return
				}
			}
		})
	}

	// Play returns once every event's instant effect has run, so the
	// cameras that joined mid-run are in f.cams below.
	scenario.Play(f.s, f)

	// Wait for every camera stream to finish.
	timeout := f.camDeadline()
	var clients []ClientReport
	for _, h := range f.handles() {
		left := time.Until(timeout)
		if left < time.Second {
			left = time.Second
		}
		rep, ok := h.wait(left)
		if !ok {
			f.logf("fleet: camera %s: report not recovered", h.name)
			rep.Camera = h.name
		}
		clients = append(clients, rep)
	}
	close(stopTick)
	f.clk.Wait() // events, respawns and heals still in flight

	elapsed := time.Since(f.start)

	// Final collection: durability verdict and report per live edge,
	// then the cloud.
	var edges []EdgeReport
	durableOK := true
	for _, fe := range f.edges {
		f.mu.Lock()
		dark := fe.dark
		ctl := fe.ctl
		f.mu.Unlock()
		if dark || ctl == nil {
			edges = append(edges, EdgeReport{Edge: fe.id, DurableErr: "edge down at end of run (not verified)"})
			continue
		}
		var er EdgeReport
		if err := ctl.CallJSON(wire.Control{Op: OpReport}, 0, &er); err != nil {
			f.logf("fleet: edge %s report: %v", fe.id, err)
			er.Edge = fe.id
		}
		var v struct {
			Records int `json:"records"`
		}
		if err := ctl.CallJSON(wire.Control{Op: OpVerify}, 30*time.Second, &v); err != nil {
			er.DurableOK = false
			er.DurableErr = err.Error()
			durableOK = false
		} else {
			er.DurableOK = true
			er.DurableRecords = v.Records
		}
		edges = append(edges, er)
	}
	var cloud *CloudReport
	if f.cloud != nil {
		var cr CloudReport
		if err := f.cloud.CallJSON(wire.Control{Op: OpReport}, 0, &cr); err != nil {
			f.logf("fleet: cloud report: %v", err)
		} else {
			cloud = &cr
		}
	}

	f.mu.Lock()
	crashes := append([]crashRecord{}, f.crashes...)
	dyn := f.dyn
	camEdge := f.camEdge
	f.mu.Unlock()

	res := &Result{
		Clients:      clients,
		Edges:        edges,
		Cloud:        cloud,
		DurabilityOK: durableOK,
		WorkDir:      f.dir,
	}
	res.Report = mergeReport(elapsed, f.ts, clients, camEdge, edges, cloud, crashes, dyn)

	// Trace collection needs the processes' SIGTERM flush first.
	f.stopProcs()
	if f.o.Trace {
		f.collectTrace(res)
	}
	return res
}

// handles snapshots the camera streams started so far.
func (f *fleetRun) handles() []*procCam {
	f.mu.Lock()
	defer f.mu.Unlock()
	hs := make([]*procCam, 0, len(f.cams))
	for _, h := range f.cams {
		hs = append(hs, h)
	}
	return hs
}

// camDeadline estimates the latest wall instant any camera can still be
// streaming: the longest stream at its base rate, plus the frame timeout.
func (f *fleetRun) camDeadline() time.Time {
	var longest time.Duration
	for _, cam := range f.camAll {
		prof, err := scenario.ProfileFor(cam.Profile)
		if err != nil {
			continue
		}
		frames := cam.Frames
		if frames <= 0 {
			frames = 100
		}
		if d := time.Duration(frames) * prof.FrameInterval(); d > longest {
			longest = d
		}
	}
	return f.start.Add(f.scaled(longest) + f.o.FrameTimeout + 15*time.Second)
}

// Schedule implements scenario.Driver: it sleeps to the event's scaled
// wall instant and runs fn on the caller, so events apply one after
// another in timeline order and a slow verb (a join waits for its client)
// holds back the events after it. Only an undo — a respawn after
// restart_after, a heal — runs on its own goroutine.
func (f *fleetRun) Schedule(at time.Duration, label string, fn func() (time.Duration, func())) {
	f.clk.Sleep(at - f.clk.Now())
	f.logf("fleet: t=%s %s", at, label)
	if after, undo := fn(); undo != nil {
		f.clk.Go(func() {
			f.clk.Sleep(after)
			undo()
		})
	}
}

// Join implements scenario.Driver: the camera's client starts now.
func (f *fleetRun) Join(cam scenario.Camera) {
	if err := f.startCamera(cam); err != nil {
		f.logf("fleet: join %s: %v", cam.ID, err)
		return
	}
	f.mu.Lock()
	f.dyn.Joins++
	f.mu.Unlock()
}

// Stop implements scenario.Driver.
func (f *fleetRun) Stop(camera string) {
	f.mu.Lock()
	h := f.cams[camera]
	f.dyn.Leaves++
	f.mu.Unlock()
	if h != nil {
		h.stop()
	}
}

// Shift implements scenario.Driver: a rate change steers the clients live
// (cross-edge and zipf shifts were rejected by ValidateForFleet).
func (f *fleetRun) Shift(camera string, rate, _, _ *float64) {
	if rate == nil {
		return
	}
	f.mu.Lock()
	var targets []*procCam
	if camera != "" {
		if h := f.cams[camera]; h != nil {
			targets = append(targets, h)
		}
	} else {
		for _, h := range f.cams {
			targets = append(targets, h)
		}
	}
	f.dyn.WorkloadShifts++
	f.mu.Unlock()
	for _, h := range targets {
		if err := h.rate(*rate); err != nil {
			f.logf("fleet: shift %s: %v", camera, err)
		}
	}
}

// Migrate implements scenario.Driver: the camera's client redials the new
// edge.
func (f *fleetRun) Migrate(camID, to string) {
	f.mu.Lock()
	h := f.cams[camID]
	fe := f.byID[to]
	f.mu.Unlock()
	if h == nil || fe == nil {
		return
	}
	if err := h.redial(fe.addr); err != nil {
		f.logf("fleet: migrate %s→%s: %v", camID, to, err)
		f.mu.Lock()
		f.dyn.MigrationsFailed++
		f.mu.Unlock()
		return
	}
	f.mu.Lock()
	f.camEdge[camID] = to
	f.dyn.Migrations++
	f.mu.Unlock()
}

// Crash implements scenario.Driver: it SIGKILLs the edge process. An edge
// that is already dark is left alone and the call reports false.
func (f *fleetRun) Crash(edge string) bool {
	fe := f.byID[edge]
	if fe == nil {
		return false
	}
	f.mu.Lock()
	if fe.dark {
		f.mu.Unlock()
		return false
	}
	fe.dark = true
	ctl, p := fe.ctl, fe.p
	fe.ctl = nil
	fe.killedAt = time.Now()
	fe.crash = len(f.crashes)
	f.crashes = append(f.crashes, crashRecord{edge: fe.id})
	f.dyn.EdgeOutages++
	f.mu.Unlock()
	if ctl != nil {
		ctl.Close()
	}
	p.kill()
	f.logf("fleet: edge %s killed (SIGKILL)", fe.id)
	return true
}

// Restart implements scenario.Driver: it respawns the edge on the same
// data address and WAL, so clients reconnect and the store replays.
func (f *fleetRun) Restart(edge string) {
	fe := f.byID[edge]
	if fe == nil {
		return
	}
	p, info, err := fe.respawn(fe.addr)
	if err != nil {
		f.logf("fleet: edge %s respawn: %v", fe.id, err)
		return
	}
	ctl, err := DialControl(info.Control)
	if err != nil {
		f.logf("fleet: edge %s respawn control: %v", fe.id, err)
		f.mu.Lock()
		fe.p = p // still torn down at the end of the run
		f.mu.Unlock()
		return
	}
	var er EdgeReport
	replayed := 0
	if err := ctl.CallJSON(wire.Control{Op: OpReport}, 0, &er); err == nil {
		replayed = er.WALReplayed
	}
	f.mu.Lock()
	fe.p = p
	fe.ctl = ctl
	fe.dark = false
	f.dyn.OutageRestores++
	rec := &f.crashes[fe.crash]
	rec.downFor = time.Since(fe.killedAt)
	rec.replayed = replayed
	f.mu.Unlock()
	f.logf("fleet: edge %s respawned on %s, %d WAL records replayed", fe.id, info.Addr, replayed)
}

// ArmTwoPCCrash implements scenario.Driver. Standalone edges run no 2PC
// round, and ValidateForFleet rejects the event.
func (f *fleetRun) ArmTwoPCCrash(edge, _ string, _ int, _ time.Duration) {
	f.logf("fleet: twopc_crash on %s needs the in-process sharded fleet", edge)
}

// Retire implements scenario.Driver: it drains an edge and migrates its
// cameras to the remaining edges in index order — the planned
// counterpart of a crash.
func (f *fleetRun) Retire(edgeID string) {
	fe := f.byID[edgeID]
	if fe == nil {
		return
	}
	f.mu.Lock()
	fe.retired = true
	ctl := fe.ctl
	var moving []string
	for cam, eid := range f.camEdge {
		if eid == edgeID {
			moving = append(moving, cam)
		}
	}
	var dests []*fleetEdge
	for _, other := range f.edges {
		if !other.retired && !other.dark {
			dests = append(dests, other)
		}
	}
	f.dyn.Retired++
	f.mu.Unlock()
	if ctl != nil {
		if _, err := ctl.CallOK(wire.Control{Op: OpDrain}, 0); err != nil {
			f.logf("fleet: retire %s drain: %v", edgeID, err)
		}
	}
	for i, cam := range moving {
		if len(dests) == 0 {
			break
		}
		f.Migrate(cam, dests[i%len(dests)].id)
	}
}

// SetLink implements scenario.Driver for an edge's cloud uplink: the edge
// blackholes its modeled cloud path (edge↔edge links were rejected by
// ValidateForFleet).
func (f *fleetRun) SetLink(a, b string, down bool) {
	fe := f.byID[a]
	if fe == nil || b != "cloud" {
		f.logf("fleet: link %s↔%s needs the in-process sharded fleet", a, b)
		return
	}
	f.mu.Lock()
	ctl := fe.ctl
	if down {
		f.dyn.CloudLinkOutages++
	}
	f.mu.Unlock()
	if ctl == nil {
		return
	}
	if _, err := ctl.CallOK(wire.Control{Op: OpLink, Path: "cloud", Down: down}, 0); err != nil {
		f.logf("fleet: link %s↔cloud down=%v: %v", a, down, err)
	}
}

// Checkpoint implements scenario.Driver: it compacts one edge's WAL (or
// every live edge's).
func (f *fleetRun) Checkpoint(edgeID string) {
	for _, fe := range f.edges {
		if edgeID != "" && fe.id != edgeID {
			continue
		}
		f.mu.Lock()
		ctl := fe.ctl
		dark := fe.dark
		f.mu.Unlock()
		if dark || ctl == nil {
			continue
		}
		if _, err := ctl.CallOK(wire.Control{Op: OpCheckpoint}, 30*time.Second); err != nil {
			f.logf("fleet: checkpoint %s: %v", fe.id, err)
		}
	}
}

// stopProcs gracefully stops every spawned process (SIGTERM: reports and
// traces flush) — the clients first, then the edges, then the cloud.
func (f *fleetRun) stopProcs() {
	for _, fe := range f.edges {
		f.mu.Lock()
		p := fe.p
		dark := fe.dark
		f.mu.Unlock()
		if dark {
			continue
		}
		if err := p.term(10 * time.Second); err != nil {
			f.logf("fleet: %v", err)
		}
	}
	if f.cloudP != nil {
		if err := f.cloudP.term(10 * time.Second); err != nil {
			f.logf("fleet: %v", err)
		}
	}
}

// collectTrace reads every process's span stream, aligns the clocks,
// prunes span tails lost to SIGKILL, and runs the offline watchdog.
func (f *fleetRun) collectTrace(res *Result) {
	var streams []collect.Stream
	var files []string
	add := func(path string) {
		if path == "" {
			return
		}
		st, err := collect.ReadFile(path)
		if err != nil {
			f.logf("fleet: trace %s: %v", filepath.Base(path), err)
			return
		}
		if len(st.Spans) == 0 {
			return
		}
		streams = append(streams, st)
		files = append(files, path)
	}
	add(filepath.Join(f.dir, "trace-cloud.jsonl"))
	for _, fe := range f.edges {
		add(fe.trace)
	}
	for _, h := range f.handles() {
		add(h.trace)
	}
	res.TraceFiles = files
	if len(streams) == 0 {
		return
	}
	m, err := collect.Merge(streams, collect.Options{})
	if err != nil {
		f.logf("fleet: trace merge: %v", err)
		return
	}
	var pruned int
	m.Spans, pruned = collect.PruneOrphans(m.Spans)
	res.Trace = m
	res.PrunedSpans = pruned
	w := collect.NewWatchdog(collect.WatchdogConfig{Tolerance: m.Tolerance()})
	for _, sp := range m.Spans {
		w.Feed(sp)
	}
	res.Incidents = w.Finish()
}

// teardown closes control connections and makes sure no process outlives
// the orchestrator.
func (f *fleetRun) teardown() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fe := range f.edges {
		if fe.ctl != nil {
			fe.ctl.Close()
			fe.ctl = nil
		}
		if fe.p.alive() {
			fe.p.kill()
		}
	}
	if f.cloud != nil {
		f.cloud.Close()
		f.cloud = nil
	}
	if f.cloudP != nil && f.cloudP.alive() {
		f.cloudP.kill()
	}
	for _, h := range f.cams {
		h.stop()
	}
}
