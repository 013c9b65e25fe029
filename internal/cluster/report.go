package cluster

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"croesus/internal/core"
	"croesus/internal/faults"
	"croesus/internal/obs"
	"croesus/internal/twopc"
)

// CameraReport summarizes one camera's run: the standard single-pipeline
// Summary plus latency percentiles.
type CameraReport struct {
	Camera string
	// Edge is the camera's edge at the end of the run (its destination,
	// if it migrated).
	Edge string

	Summary core.Summary

	// Dropped counts frames lost to an edge outage; Left reports a
	// camera that retired before its stream ended.
	Dropped int
	Left    bool

	InitialP50 time.Duration
	InitialP95 time.Duration
	InitialP99 time.Duration
	FinalP50   time.Duration
	FinalP95   time.Duration
	FinalP99   time.Duration
}

// ClusterReport aggregates a whole fleet run: per-camera reports plus
// fleet-wide throughput, latency percentiles, accuracy, and shedding.
type ClusterReport struct {
	// Policy names how unpinned cameras were placed: always "round-robin".
	Policy  string
	Cameras []CameraReport

	// Frames is the fleet total; Elapsed the virtual makespan; and
	// ThroughputFPS Frames/Elapsed.
	Frames        int
	Elapsed       time.Duration
	ThroughputFPS float64

	// Fleet latency percentiles over every frame of every camera.
	InitialP50 time.Duration
	InitialP95 time.Duration
	InitialP99 time.Duration
	FinalP50   time.Duration
	FinalP95   time.Duration
	FinalP99   time.Duration

	// CriticalPath decomposes the fleet's final latency into its
	// critical-path components, per core.Breakdown.CriticalPath — where
	// the time went, not just how much there was. The components are
	// per-frame sums over possibly-overlapping stages, so a component
	// percentile can exceed the corresponding final-latency percentile's
	// share; compare components against each other, not against FinalP99.
	CriticalPath CriticalPath

	// Sections is the per-section critical-path decomposition of a graph
	// fleet: one row per graph section, attributing each boundary's
	// latency to its hop, model, and transaction (lock wait vs commit)
	// shares. Nil for two-stage runs.
	Sections []SectionReport

	// MeanF1Final is the unweighted mean of per-camera final accuracy.
	MeanF1Final float64

	// Cloud traffic outcome counts, summed over cameras.
	Validated int
	Shed      int
	Lost      int

	// Transaction totals, summed over cameras.
	TxnsTriggered int
	Corrections   int
	Apologies     int

	Batcher BatcherStats

	// Sharded-keyspace counters: Sharded records whether the fleet ran as
	// one database sharded across edges, Protocol which multi-stage
	// protocol governed it, CrossEdgeFraction the workload's
	// multi-partition rate, and TwoPC the fleet-wide distributed-commit
	// activity (all zero in unsharded fleets).
	Sharded           bool
	Protocol          string
	CrossEdgeFraction float64
	TwoPC             twopc.DistCounters

	// Faults summarizes the injected failures and their recovery work —
	// crashes, restarts, transactions failed by faults, in-doubt
	// resolutions, recovery-time percentiles. Nil unless the fleet is
	// durable.
	Faults *faults.Report

	// Dynamic tallies scenario-driven fleet churn — joins, leaves,
	// migrations, outages, dropped frames. Nil for a static run.
	Dynamic *DynamicReport
	// Phases slices the run on the timeline's event boundaries. Nil when
	// no phase was marked.
	Phases []PhaseReport
}

// CriticalPath is the per-component decomposition of final latency at two
// percentiles: model compute (edge + cloud inference), queueing (inference
// pools, batcher), lock waits, 2PC rounds, and network transfer.
type CriticalPath struct {
	ComputeP50, ComputeP99 time.Duration
	QueueP50, QueueP99     time.Duration
	LockP50, LockP99       time.Duration
	TwoPCP50, TwoPCP99     time.Duration
	NetworkP50, NetworkP99 time.Duration
}

// SectionReport aggregates one graph section across the fleet: boundary
// latency percentiles plus the mean decomposition into network hop, model
// inference, and transaction time (with its lock-wait and 2PC shares).
type SectionReport struct {
	Index int
	Name  string
	Tier  string

	LatencyP50 time.Duration
	LatencyP99 time.Duration

	MeanHop      time.Duration
	MeanDetect   time.Duration
	MeanTxn      time.Duration
	MeanLockWait time.Duration
	MeanTwoPC    time.Duration
}

// frameRecord is what a camera keeps of one frame once it has finalized:
// its capture time, its two latencies and its cloud outcome — what the
// phase rows, the makespan and Outcomes read back. Everything else the
// report needs is folded into the camera's and the fleet's sketches as the
// frame finalizes. 32 B.
type frameRecord struct {
	capturedAt, initial, final time.Duration
	done                       bool // finalized (vs dropped by an outage)
	sent, shed, lost           bool
}

func recordOf(o *core.FrameOutcome) frameRecord {
	return frameRecord{capturedAt: o.CapturedAt, initial: o.InitialLatency, final: o.FinalLatency,
		done: true, sent: o.SentToCloud, shed: o.Shed, lost: o.CloudLost}
}

// fleetAcc folds every finalized frame of the fleet into the report's
// fleet-wide critical-path and per-section aggregates. Sketch counts are
// integers and sums integer durations, so the order frames finalize in
// cannot move a report cell.
type fleetAcc struct {
	// comp holds the critical-path components: compute, queue, lock, 2PC,
	// network — the order core.Breakdown.CriticalPath returns them in.
	comp [5]obs.Histogram

	// The per-section block belongs to fleets that declare a graph (nil
	// secLat otherwise); the two-stage fleet's sections are the initial
	// and final rows. mu guards the sums and the frame count.
	secLat    []obs.Histogram
	mu        sync.Mutex
	secSum    []core.SectionOutcome
	secFrames int
}

func (a *fleetAcc) fold(o *core.FrameOutcome) {
	cc, cq, cl, ct, cn := o.Breakdown.CriticalPath()
	for i, d := range [...]time.Duration{cc, cq, cl, ct, cn} {
		a.comp[i].Observe(d)
	}
	if a.secLat == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.secFrames++
	for k, sec := range o.Sections {
		a.secLat[k].Observe(sec.Latency)
		a.secSum[k].Hop += sec.Hop
		a.secSum[k].Detect += sec.Detect
		a.secSum[k].Txn += sec.Txn
		a.secSum[k].LockWait += sec.LockWait
		a.secSum[k].TwoPC += sec.TwoPC
	}
}

// report scores every camera and aggregates the fleet from the sketches
// folded as frames finalized. elapsed is the run's makespan; endAt the
// absolute virtual time it ended (phase windows are absolute).
func (c *Cluster) report(elapsed, endAt time.Duration) *ClusterReport {
	r := &ClusterReport{Policy: "round-robin", Elapsed: elapsed}
	phases := c.phaseReports(endAt)
	var fleetInit, fleetFinal obs.Histogram
	phaseFinal := make([]obs.Histogram, len(phases))
	for _, cam := range c.cams {
		// A camera that left mid-run (or lost frames to an outage) reports
		// the frames it actually captured: the fleet has drained, so the
		// lock only orders these reads after the last frame's writes.
		cam.mu.Lock()
		dropped, left, edge := cam.dropped, cam.left && cam.fed < cam.spec.Frames, cam.edge
		sum := cam.tally.Summary(cam.spec.ID, core.ModeCroesus)
		for _, rec := range cam.records[:cam.fed] {
			if !rec.done {
				continue
			}
			for pi := range phases {
				if rec.capturedAt >= phases[pi].Start && (pi == len(phases)-1 || rec.capturedAt < phases[pi].End) {
					phases[pi].Frames++
					if rec.sent {
						if rec.shed {
							phases[pi].Shed++
						} else if !rec.lost {
							phases[pi].Validated++
						}
					}
					phaseFinal[pi].Observe(rec.final)
				}
			}
		}
		cam.mu.Unlock()
		fleetInit.Merge(&cam.initLat)
		fleetFinal.Merge(&cam.finalLat)
		r.Cameras = append(r.Cameras, CameraReport{
			Camera:     cam.spec.ID,
			Edge:       edge.Spec.ID,
			Summary:    sum,
			Dropped:    dropped,
			Left:       left,
			InitialP50: cam.initLat.Quantile(0.50),
			InitialP95: cam.initLat.Quantile(0.95),
			InitialP99: cam.initLat.Quantile(0.99),
			FinalP50:   cam.finalLat.Quantile(0.50),
			FinalP95:   cam.finalLat.Quantile(0.95),
			FinalP99:   cam.finalLat.Quantile(0.99),
		})
		r.Frames += sum.Frames
		r.Validated += sum.Validated
		r.Shed += sum.Shed
		r.Lost += sum.CloudLost
		r.TxnsTriggered += sum.TxnsTriggered
		r.Corrections += sum.Corrections
		r.Apologies += sum.Apologies
		r.MeanF1Final += sum.F1Final
	}
	for pi := range phases {
		phases[pi].FinalP50 = phaseFinal[pi].Quantile(0.50)
		phases[pi].FinalP99 = phaseFinal[pi].Quantile(0.99)
	}
	if n := len(r.Cameras); n > 0 {
		r.MeanF1Final /= float64(n)
	}
	if elapsed > 0 {
		r.ThroughputFPS = float64(r.Frames) / elapsed.Seconds()
	}
	r.InitialP50 = fleetInit.Quantile(0.50)
	r.InitialP95 = fleetInit.Quantile(0.95)
	r.InitialP99 = fleetInit.Quantile(0.99)
	r.FinalP50 = fleetFinal.Quantile(0.50)
	r.FinalP95 = fleetFinal.Quantile(0.95)
	r.FinalP99 = fleetFinal.Quantile(0.99)
	comp := &c.acc.comp
	r.CriticalPath = CriticalPath{
		ComputeP50: comp[0].Quantile(0.50), ComputeP99: comp[0].Quantile(0.99),
		QueueP50: comp[1].Quantile(0.50), QueueP99: comp[1].Quantile(0.99),
		LockP50: comp[2].Quantile(0.50), LockP99: comp[2].Quantile(0.99),
		TwoPCP50: comp[3].Quantile(0.50), TwoPCP99: comp[3].Quantile(0.99),
		NetworkP50: comp[4].Quantile(0.50), NetworkP99: comp[4].Quantile(0.99),
	}
	c.acc.mu.Lock()
	for k := range c.acc.secLat {
		sr := SectionReport{
			Index:      k,
			Name:       c.graph.Nodes[k].Name,
			Tier:       c.graph.Nodes[k].Tier.String(),
			LatencyP50: c.acc.secLat[k].Quantile(0.50),
			LatencyP99: c.acc.secLat[k].Quantile(0.99),
		}
		if n := time.Duration(c.acc.secFrames); n > 0 {
			sum := c.acc.secSum[k]
			sr.MeanHop = sum.Hop / n
			sr.MeanDetect = sum.Detect / n
			sr.MeanTxn = sum.Txn / n
			sr.MeanLockWait = sum.LockWait / n
			sr.MeanTwoPC = sum.TwoPC / n
		}
		r.Sections = append(r.Sections, sr)
	}
	c.acc.mu.Unlock()
	r.Batcher = c.batcher.Stats()
	r.Sharded = c.cfg.Sharded
	r.Protocol = c.cfg.Protocol.String()
	r.CrossEdgeFraction = c.cfg.CrossEdgeFraction
	r.TwoPC = c.DistStats()
	if c.injector != nil {
		r.Faults = c.injector.Report()
	}
	c.mu.Lock()
	if c.dynActive || !c.dyn.empty() {
		dyn := c.dyn
		r.Dynamic = &dyn
	}
	c.mu.Unlock()
	r.Phases = phases
	return r
}

// Format renders the report as aligned text for terminals.
func (r *ClusterReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d cameras, placement=%s\n", len(r.Cameras), r.Policy)
	fmt.Fprintf(&b, "%-8s %-7s %7s %8s %9s %9s %9s %6s %5s %5s\n",
		"camera", "edge", "frames", "F1final", "BU", "init p50", "final p99", "valid", "shed", "lost")
	for _, cr := range r.Cameras {
		s := cr.Summary
		fmt.Fprintf(&b, "%-8s %-7s %7d %8.3f %8.1f%% %9s %9s %6d %5d %5d\n",
			cr.Camera, cr.Edge, s.Frames, s.F1Final, s.BU*100,
			cr.InitialP50.Round(time.Millisecond), cr.FinalP99.Round(time.Millisecond),
			s.Validated, s.Shed, s.CloudLost)
	}
	fmt.Fprintf(&b, "fleet: %d frames in %s (%.1f frames/s), F1=%.3f\n",
		r.Frames, r.Elapsed.Round(time.Millisecond), r.ThroughputFPS, r.MeanF1Final)
	fmt.Fprintf(&b, "fleet latency: initial p50/p95/p99 %s/%s/%s, final p50/p95/p99 %s/%s/%s\n",
		r.InitialP50.Round(time.Millisecond), r.InitialP95.Round(time.Millisecond), r.InitialP99.Round(time.Millisecond),
		r.FinalP50.Round(time.Millisecond), r.FinalP95.Round(time.Millisecond), r.FinalP99.Round(time.Millisecond))
	cp := r.CriticalPath
	fmt.Fprintf(&b, "critical path (p50/p99): compute %s/%s, queue %s/%s, lock %s/%s, 2pc %s/%s, network %s/%s\n",
		cp.ComputeP50.Round(time.Millisecond), cp.ComputeP99.Round(time.Millisecond),
		cp.QueueP50.Round(time.Millisecond), cp.QueueP99.Round(time.Millisecond),
		cp.LockP50.Round(time.Millisecond), cp.LockP99.Round(time.Millisecond),
		cp.TwoPCP50.Round(time.Millisecond), cp.TwoPCP99.Round(time.Millisecond),
		cp.NetworkP50.Round(time.Millisecond), cp.NetworkP99.Round(time.Millisecond))
	for _, sr := range r.Sections {
		fmt.Fprintf(&b, "section %d %-10s tier=%-5s latency p50/p99 %s/%s; mean hop %s, detect %s, txn %s (lock %s, 2pc %s)\n",
			sr.Index, sr.Name, sr.Tier,
			sr.LatencyP50.Round(time.Millisecond), sr.LatencyP99.Round(time.Millisecond),
			sr.MeanHop.Round(time.Millisecond), sr.MeanDetect.Round(time.Millisecond),
			sr.MeanTxn.Round(time.Millisecond),
			sr.MeanLockWait.Round(time.Millisecond), sr.MeanTwoPC.Round(time.Millisecond))
	}
	bs := r.Batcher
	fmt.Fprintf(&b, "cloud batcher: %d batches carrying %d frames (mean %.1f, max %d), shed %d, max flush wait %s, SLO violations %d\n",
		bs.Batches, bs.Frames, bs.MeanBatch, bs.MaxBatch, bs.Shed,
		bs.MaxFlushWait.Round(time.Millisecond), bs.SLOViolations)
	if r.Sharded {
		tp := r.TwoPC
		fmt.Fprintf(&b, "sharded keyspace (%s, cross-edge %.0f%%): %d cross-edge 2PC commits, %d remote, %d local; %d prepare / %d commit / %d lock RPCs, %d aborts\n",
			r.Protocol, r.CrossEdgeFraction*100,
			tp.CrossEdgeCommits, tp.RemoteCommits, tp.LocalCommits,
			tp.PrepareRPCs, tp.CommitRPCs, tp.LockRPCs, tp.Aborts)
	}
	if f := r.Faults; f != nil {
		fmt.Fprintf(&b, "faults: %d crashes / %d restarts, %d link outages; %d txns failed by faults; in-doubt %d (%d committed, %d presumed abort); %d WAL records replayed; %d checkpoints; recovery p50/p95/p99 %s/%s/%s\n",
			f.Crashes, f.Restarts, f.LinkOutages, f.TxnsFailed,
			f.InDoubt, f.InDoubtCommitted, f.InDoubtAborted, f.ReplayedRecords, f.Checkpoints,
			f.RecoveryP50.Round(time.Millisecond), f.RecoveryP95.Round(time.Millisecond), f.RecoveryP99.Round(time.Millisecond))
	}
	if d := r.Dynamic; d != nil {
		fmt.Fprintf(&b, "dynamic fleet: %d joins / %d leaves; %d migrations (%d failed, %d keys handed over, %d map retries); %d workload shifts; %d edge outages (%d restored, %d frames dropped); %d cloud-link outages\n",
			d.Joins, d.Leaves, d.Migrations, d.MigrationsFailed, d.MigratedKeys, r.TwoPC.MapRetries,
			d.WorkloadShifts, d.EdgeOutages, d.OutageRestores, d.FramesDropped, d.CloudLinkOutages)
		if d.Retired > 0 {
			fmt.Fprintf(&b, "retired edges: %d (gracefully drained: cameras and shards migrated, then excluded from placement)\n", d.Retired)
		}
	}
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "phase %-28s [%8s → %8s] %5d frames, %4d validated, %3d shed, final p50/p99 %s/%s\n",
			p.Label, p.Start.Round(time.Millisecond), p.End.Round(time.Millisecond),
			p.Frames, p.Validated, p.Shed,
			p.FinalP50.Round(time.Millisecond), p.FinalP99.Round(time.Millisecond))
	}
	return b.String()
}
