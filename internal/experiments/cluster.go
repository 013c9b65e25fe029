package experiments

import (
	"fmt"
	"strings"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/faults"
	"croesus/internal/scenario"
	"croesus/internal/twopc"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// clusterCams builds n unpinned cameras cycling through the paper's
// profiles with distinct seeds, so fleets of any size stay deterministic.
//
// The three §4.5 experiments (cluster-2pc, cluster-faults, graph-depth)
// take them in the cluster's own form and build a cluster.Config instead of
// a scenario. They model §4.5's per-edge partitions, where the cameras on
// one edge share one shard; a scenario gives each camera its own shard, so
// that a migration moves exactly one camera's data, and that dilutes the
// contention these tables exist to show (cluster-2pc at 40 frames as a
// pinned scenario: MS-IA cross-edge commits at 25 % fall from 1081 to 943,
// the MS-SR lock-wait p99 at 50 % from 2023.80 ms to 224.55 ms).
func clusterCams(n, frames int, seed int64) []cluster.CameraSpec {
	profiles := video.AllProfiles()
	cams := make([]cluster.CameraSpec, n)
	for i := 0; i < n; i++ {
		cams[i] = cluster.CameraSpec{
			ID:      fmt.Sprintf("cam%d", i),
			Profile: profiles[i%len(profiles)],
			Seed:    seed + int64(i)*101,
			Frames:  frames,
		}
	}
	return cams
}

// fleetCams is clusterCams as scenario cameras.
func fleetCams(n, frames int, seed int64) []scenario.Camera {
	cams := make([]scenario.Camera, n)
	for i, c := range clusterCams(n, frames, seed) {
		cams[i] = scenario.Camera{ID: c.ID, Profile: c.Profile.Name, Seed: c.Seed, Frames: c.Frames}
	}
	return cams
}

// ClusterScale grows the fleet from one camera to sixteen over two edges
// sharing one batched cloud validator: throughput scales with cameras
// while the batcher absorbs the growing validate traffic by forming
// larger batches, holding tail latency under the SLO.
func ClusterScale(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "cluster-scale",
		Title:  "Fleet scaling: cameras vs throughput, batching, and tail latency (2 edges, 1 batched cloud)",
		Header: []string{"cameras", "frames", "fps", "F1", "init p50 (ms)", "final p99 (ms)", "batches", "mean batch", "shed"},
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		rep, err := scenario.Run(&scenario.Scenario{
			Seed: o.Seed,
			Topology: scenario.Topology{
				Edges:   []scenario.Edge{{ID: "west"}, {ID: "east"}},
				Cameras: fleetCams(n, o.Frames, o.Seed),
				Batcher: scenario.Batcher{MaxBatch: 8, SLO: scenario.Duration(80 * time.Millisecond)},
			},
		})
		if err != nil {
			panic("experiments: cluster-scale: " + err.Error())
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", rep.Frames),
			fmt.Sprintf("%.1f", rep.ThroughputFPS),
			f3(rep.MeanF1Final),
			ms(rep.InitialP50),
			ms(rep.FinalP99),
			fmt.Sprintf("%d", rep.Batcher.Batches),
			fmt.Sprintf("%.2f", rep.Batcher.MeanBatch),
			fmt.Sprintf("%d", rep.Shed),
		})
	}
	t.Notes = append(t.Notes,
		"batch sizes grow with the fleet while every flush stays within the 80ms SLO",
	)
	return t
}

// Cluster2PC shards the fleet keyspace across three edges — one database,
// each edge owning a shard — and sweeps the multi-partition operation rate
// under both multi-stage protocols. MS-IA pays an atomic commitment (2PC)
// at the initial and the final commit but holds locks only per section;
// MS-SR pays a single 2PC at the final commit but holds every lock across
// the cloud round trip. The table reports the distributed-commit work,
// where each protocol's commit latency lands, and the critical-path
// decomposition that attributes the gap between them to lock waiting vs
// atomic-commitment rounds — the §4.5 story at fleet scale.
func Cluster2PC(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "cluster-2pc",
		Title:  "Sharded fleet keyspace: cross-edge transactions under MS-IA vs MS-SR (6 cameras, 3 edge shards)",
		Header: []string{"protocol", "cross-edge", "x-edge commits", "2PC rounds", "prepare RPCs", "lock RPCs", "final p50 (ms)", "final p99 (ms)", "lock p50/p99 (ms)", "2pc p50/p99 (ms)"},
	}
	finalP50 := map[string]time.Duration{}
	cpAtHalf := map[string]cluster.CriticalPath{}
	for _, proto := range []cluster.TxnProtocol{cluster.TxnMSIA, cluster.TxnMSSR} {
		for _, frac := range []float64{0, 0.25, 0.5} {
			rep, err := cluster.Run(cluster.Config{
				Clock:             vclock.NewSim(),
				Cameras:           clusterCams(6, o.Frames, o.Seed),
				Edges:             []cluster.EdgeSpec{{ID: "west"}, {ID: "mid"}, {ID: "east"}},
				Batcher:           cluster.BatcherConfig{MaxBatch: 8, SLO: 80 * time.Millisecond},
				Seed:              o.Seed,
				Sharded:           true,
				CrossEdgeFraction: frac,
				Protocol:          proto,
			})
			if err != nil {
				panic("experiments: cluster-2pc: " + err.Error())
			}
			if frac == 0.5 {
				finalP50[proto.String()] = rep.FinalP50
				cpAtHalf[proto.String()] = rep.CriticalPath
			}
			cp := rep.CriticalPath
			t.Rows = append(t.Rows, []string{
				proto.String(),
				pct(frac),
				fmt.Sprintf("%d", rep.TwoPC.CrossEdgeCommits),
				fmt.Sprintf("%d", rep.TwoPC.TwoPCRounds),
				fmt.Sprintf("%d", rep.TwoPC.PrepareRPCs),
				fmt.Sprintf("%d", rep.TwoPC.LockRPCs),
				ms(rep.FinalP50),
				ms(rep.FinalP99),
				ms(cp.LockP50) + "/" + ms(cp.LockP99),
				ms(cp.TwoPCP50) + "/" + ms(cp.TwoPCP99),
			})
		}
	}
	gap := finalP50["MS-SR"] - finalP50["MS-IA"]
	sr, ia := cpAtHalf["MS-SR"], cpAtHalf["MS-IA"]
	t.Notes = append(t.Notes,
		fmt.Sprintf("final-commit latency gap at 50%% cross-edge: MS-SR %s vs MS-IA %s (MS-SR − MS-IA = %s)",
			ms(finalP50["MS-SR"])+"ms", ms(finalP50["MS-IA"])+"ms", ms(gap)+"ms"),
		fmt.Sprintf("critical path attributes the gap: lock wait contributes %sms of it at p99 (MS-SR %sms vs MS-IA %sms), 2PC rounds %sms (MS-SR %sms vs MS-IA %sms)",
			ms(sr.LockP99-ia.LockP99), ms(sr.LockP99), ms(ia.LockP99),
			ms(sr.TwoPCP99-ia.TwoPCP99), ms(sr.TwoPCP99), ms(ia.TwoPCP99)),
		"MS-IA runs a 2PC at both commits; MS-SR runs one but holds cross-edge locks across the cloud round trip",
	)
	return t
}

// ClusterFaults runs the sharded fleet through a scripted failure
// schedule — an edge fail-stop with WAL-backed recovery, a participant
// crash right after its 2PC yes vote, a coordinator crash before its
// decision is durable, and a peer-link partition — under both multi-stage
// protocols. The table reports availability (transactions that survived
// the schedule), the recovery work, and where each protocol's final-commit
// latency lands: MS-IA sections fail independently, while MS-SR holds
// every lock across the cloud round trip, so a crash in that window
// retracts the whole transaction. Every run is deterministic: same seed,
// same schedule, byte-identical report.
func ClusterFaults(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "cluster-faults",
		Title:  "Fault injection: crash/recovery schedule vs availability and latency (6 cameras, 3 edge shards, MS-IA vs MS-SR)",
		Header: []string{"protocol", "crashes", "restarts", "txns failed", "availability", "in-doubt C/A", "replayed", "final p50 (ms)", "final p99 (ms)", "recovery p95 (ms)"},
	}
	// The schedule scales with the run: the paper profiles capture at
	// 2 fps, so a run lasts Frames/2 seconds.
	runLen := time.Duration(o.Frames) * 500 * time.Millisecond
	plan := func() *faults.Plan {
		return &faults.Plan{
			Crashes: []faults.EdgeCrash{
				{Edge: 1, At: runLen / 4, RestartAfter: runLen / 10},
			},
			TwoPC: []faults.TwoPCCrash{
				{Edge: 2, Point: twopc.PointParticipantPrepared, Round: 1, RestartAfter: runLen / 20},
				{Edge: 0, Point: twopc.PointAfterPrepare, Round: 3, RestartAfter: runLen / 20},
			},
			Links: []faults.LinkFault{
				{A: 0, B: 2, At: runLen / 2, Heal: runLen * 6 / 10},
			},
		}
	}
	for _, proto := range []cluster.TxnProtocol{cluster.TxnMSIA, cluster.TxnMSSR} {
		rep, err := cluster.Run(cluster.Config{
			Clock:             vclock.NewSim(),
			Cameras:           clusterCams(6, o.Frames, o.Seed),
			Edges:             []cluster.EdgeSpec{{ID: "west"}, {ID: "mid"}, {ID: "east"}},
			Batcher:           cluster.BatcherConfig{MaxBatch: 8, SLO: 80 * time.Millisecond},
			Seed:              o.Seed,
			CrossEdgeFraction: 0.3,
			Protocol:          proto,
			Faults:            plan(),
		})
		if err != nil {
			panic("experiments: cluster-faults: " + err.Error())
		}
		f := rep.Faults
		avail := 1.0
		if rep.TxnsTriggered > 0 {
			avail = 1 - float64(f.TxnsFailed)/float64(rep.TxnsTriggered)
		}
		t.Rows = append(t.Rows, []string{
			proto.String(),
			fmt.Sprintf("%d", f.Crashes),
			fmt.Sprintf("%d", f.Restarts),
			fmt.Sprintf("%d", f.TxnsFailed),
			pct(avail),
			fmt.Sprintf("%d/%d", f.InDoubtCommitted, f.InDoubtAborted),
			fmt.Sprintf("%d", f.ReplayedRecords),
			ms(rep.FinalP50),
			ms(rep.FinalP99),
			ms(f.RecoveryP95),
		})
	}
	t.Notes = append(t.Notes,
		"every crash recovers from the edge's write-ahead log; in-doubt 2PC blocks resolve against the coordinator's log (presumed abort)",
		"shed and failed work costs accuracy or apologies, never a half-committed transaction",
	)
	return t
}

// ClusterMigrate runs the scenario API's headline event — a live camera
// migration between edges, with a concurrent edge crash to keep the fault
// machinery honest — under both multi-stage protocols, and reports
// availability and tail latency before, during, and after the handoff. The
// migration quiesces the camera's logical shard behind exclusive shard
// intents, hands its keys over inside a 2PC, and bumps the shard-map
// epoch: in-flight transactions finish on the old epoch or retry on the
// new map (the "map retries" column), and MS-SR — which holds every lock
// across the cloud round trip — makes the migration wait out far longer
// intent holds than MS-IA.
func ClusterMigrate(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "cluster-migrate",
		Title:  "Live camera migration: shard handoff vs availability and tail latency (6 cameras, 3 edges, MS-IA vs MS-SR)",
		Header: []string{"protocol", "keys moved", "map retries", "aborts", "availability", "final p99 before (ms)", "final p99 during (ms)", "final p99 after (ms)"},
	}
	runLen := time.Duration(o.Frames) * 500 * time.Millisecond
	build := func(proto string) *scenario.Scenario {
		profiles := []string{"street-vehicles", "park-dog", "mall-person", "street-person", "airport-airplane", "street-vehicles"}
		edges := []string{"west", "mid", "east"}
		cams := make([]scenario.Camera, 6)
		for i := range cams {
			cams[i] = scenario.Camera{
				ID:      fmt.Sprintf("cam%d", i),
				Profile: profiles[i],
				Seed:    o.Seed + int64(i)*101,
				Frames:  o.Frames,
				Edge:    edges[i%3],
			}
		}
		return &scenario.Scenario{
			Name: "cluster-migrate-" + proto,
			Seed: o.Seed,
			Topology: scenario.Topology{
				Edges:             []scenario.Edge{{ID: "west"}, {ID: "mid"}, {ID: "east"}},
				Cameras:           cams,
				Protocol:          proto,
				CrossEdgeFraction: 0.3,
				Batcher:           scenario.Batcher{MaxBatch: 8, SLO: scenario.Duration(80 * time.Millisecond)},
			},
			Timeline: []scenario.Event{
				{At: scenario.Duration(runLen / 4), Do: scenario.KindEdgeCrash, Edge: "mid", RestartAfter: scenario.Duration(runLen / 10)},
				{At: scenario.Duration(runLen / 2), Do: scenario.KindMigrateCamera, Camera: "cam0", To: "east"},
				{At: scenario.Duration(runLen * 3 / 4), Do: scenario.KindWorkloadShift, Camera: "cam0", CrossEdgeFraction: f64(0.5)},
			},
		}
	}
	for _, proto := range []string{"ms-ia", "ms-sr"} {
		rep, err := scenario.Run(build(proto))
		if err != nil {
			panic("experiments: cluster-migrate: " + err.Error())
		}
		avail := 1.0
		if rep.TxnsTriggered > 0 {
			avail = 1 - float64(rep.TwoPC.Aborts)/float64(rep.TxnsTriggered)
		}
		var before, during, after time.Duration
		for _, p := range rep.Phases {
			switch {
			case p.Label == "start":
				before = p.FinalP99
			case strings.HasPrefix(p.Label, "migrate:"):
				during = p.FinalP99
			case strings.HasPrefix(p.Label, "shift:"):
				after = p.FinalP99
			}
		}
		d := rep.Dynamic
		t.Rows = append(t.Rows, []string{
			strings.ToUpper(proto),
			fmt.Sprintf("%d", d.MigratedKeys),
			fmt.Sprintf("%d", rep.TwoPC.MapRetries),
			fmt.Sprintf("%d", rep.TwoPC.Aborts),
			pct(avail),
			ms(before),
			ms(during),
			ms(after),
		})
	}
	t.Notes = append(t.Notes,
		"the handoff is atomic: shard intents quiesce in-flight transactions, the keys move inside one 2PC, and the shard-map epoch bump makes waiters retry on the new routes",
		"a camera migration behaves like a short planned outage of one shard: tail latency bumps during the handoff window and recovers after",
	)
	return t
}

func f64(v float64) *float64 { return &v }

// ClusterShed starves the cloud validator under a fixed eight-camera
// fleet and tightens the admission cap: Croesus degrades by shedding the
// lowest-confidence-margin frames to their edge answers instead of
// letting the backlog (and the validation SLO) blow up. Accuracy falls
// toward edge-only gracefully as shedding rises.
func ClusterShed(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "cluster-shed",
		Title:  "Overload degradation: admission cap vs shedding, accuracy, and SLO compliance (8 cameras, starved cloud)",
		Header: []string{"max pending", "validated", "shed", "shed %", "F1", "final p99 (ms)", "SLO violations"},
	}
	// MaxPending must stay ≥ MaxBatch (4): NewBatcher rejects a cap a
	// batch could never fill under.
	for _, pending := range []int{64, 32, 16, 8, 4} {
		rep, err := scenario.Run(&scenario.Scenario{
			Seed: o.Seed,
			Topology: scenario.Topology{
				Edges:   []scenario.Edge{{ID: "west"}, {ID: "east"}},
				Cameras: fleetCams(8, o.Frames, o.Seed),
				// CloudSpeed 0.15 models a starved (oversubscribed) GPU.
				Batcher: scenario.Batcher{
					MaxBatch:   4,
					SLO:        scenario.Duration(60 * time.Millisecond),
					MaxPending: pending,
					CloudSpeed: 0.15,
				},
			},
		})
		if err != nil {
			panic("experiments: cluster-shed: " + err.Error())
		}
		sent := rep.Validated + rep.Shed + rep.Lost
		shedPct := 0.0
		if sent > 0 {
			shedPct = float64(rep.Shed) / float64(sent)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pending),
			fmt.Sprintf("%d", rep.Validated),
			fmt.Sprintf("%d", rep.Shed),
			pct(shedPct),
			f3(rep.MeanF1Final),
			ms(rep.FinalP99),
			fmt.Sprintf("%d", rep.Batcher.SLOViolations),
		})
	}
	t.Notes = append(t.Notes,
		"shed frames keep their edge answer (the initial commit), so overload costs accuracy, never availability",
	)
	return t
}
