package main

// The sim_* workloads: generated scenario files played through the
// simulated deployment (scenario.NewObserved + Runtime.Run) on a virtual
// clock. Latencies and accuracy are simulated quantities; frames per second
// is how fast the host simulates them.

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"croesus/internal/obs"
	"croesus/internal/scenario"
	"croesus/internal/vclock"
)

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simSetups is how many times a child sets a scenario up: once for the run
// it times, the rest afterwards. One set-up is 5–25 ms and single ones vary
// by a factor of two; the median of five still moved between fresh processes
// from 7 to 19 ms on sim_sharded, the median of 21 stays within ±5 % (±9 % on
// sim_fleet) and costs a repeat 0.2–0.5 s.
const simSetups = 21

// setUpSim builds one scenario's fleet and times it. Each play gets its own
// span sink: the plays share camera names, frame numbers and a clock that
// starts at zero, so their spans would otherwise land in the same traces.
func setUpSim(path string, o *obs.Obs) (*scenario.Scenario, *scenario.Runtime, float64, error) {
	t0 := time.Now()
	s, err := scenario.Load(path)
	if err != nil {
		return nil, nil, 0, err
	}
	rt, err := scenario.NewObserved(s, vclock.NewSim(), nil, o)
	if err != nil {
		return nil, nil, 0, err
	}
	return s, rt, time.Since(t0).Seconds(), nil
}

func runSim(m *manifest, dir string, tr *tracing, r *result) error {
	// Totals over the plays (sim_sharded plays its scenario twice).
	var (
		setup          float64
		initial, final []float64
		formats        []string
		f1             float64
		virtual        time.Duration
		maxFlush       time.Duration

		finalised, degraded        int // degraded: shed, validation-lost or dropped
		sentToCloud, batches, shed int
		batchFrames                int
		txns, corrections, apols   int
		retractions                int64
		lockWaits, reads, writes   int64
		lockWaitTotal              time.Duration
		crashes, migrations        int
		cross, prepares, lockRPCs  int64
		aborts, mapRetries         int64
		replayed, checkpoints      int64
		txnsFailed                 int64
		recoveryP50                time.Duration
		sharded, durable           bool
	)
	meter := &procMeter{trace: tr}
	for _, file := range m.Scenarios {
		// Set-up: decode and validate the input, provision the fleet and
		// generate every camera's video.
		s, rt, took, err := setUpSim(filepath.Join(dir, file), tr.sink(file, m.Frames))
		if err != nil {
			return err
		}
		setups := []float64{took}

		if err := meter.begin(); err != nil {
			return err
		}
		rep := rt.Run()
		if err := meter.end(); err != nil {
			return err
		}

		formats = append(formats, rep.Format())
		f1 += rep.MeanF1Final / float64(len(m.Scenarios))
		virtual += rep.Elapsed
		if w := rep.Batcher.MaxFlushWait; w > maxFlush {
			maxFlush = w
		}
		for _, cam := range s.Topology.Cameras {
			for _, o := range rt.Cluster.Outcomes(cam.ID) {
				initial = append(initial, msOf(o.InitialLatency))
				final = append(final, msOf(o.FinalLatency))
				finalised++
			}
		}
		degraded += rep.Shed + rep.Lost
		sentToCloud += rep.Validated + rep.Shed + rep.Lost
		batches += rep.Batcher.Batches
		batchFrames += rep.Batcher.Frames
		shed += rep.Batcher.Shed
		txns += rep.TxnsTriggered
		corrections += rep.Corrections
		apols += rep.Apologies

		for _, e := range rt.Cluster.Edges() {
			n, mean := e.Locks.WaitStats()
			lockWaits += n
			lockWaitTotal += time.Duration(n) * mean
			rd, wr, _ := e.Store.Stats()
			reads += rd
			writes += wr
			if !rep.Sharded {
				retractions += e.Mgr.Stats().Retractions
			}
		}
		if rep.Sharded {
			sharded = true
			retractions += rt.Cluster.FleetManager().Stats().Retractions
			tp := rep.TwoPC
			cross += tp.CrossEdgeCommits
			prepares += tp.PrepareRPCs
			lockRPCs += tp.LockRPCs
			aborts += tp.Aborts
			mapRetries += tp.MapRetries
		}
		if inj := rt.Cluster.Injector(); inj != nil {
			if err := inj.VerifyDurability(); err != nil {
				r.failf("%s: durability: %v", file, err)
			}
		}
		if f := rep.Faults; f != nil {
			durable = true
			crashes += int(f.Crashes)
			if f.Crashes != f.Restarts {
				r.failf("%s: %d crashes but %d restarts", file, f.Crashes, f.Restarts)
			}
			replayed += f.ReplayedRecords
			checkpoints += f.Checkpoints
			txnsFailed += f.TxnsFailed
			if f.RecoveryP50 > recoveryP50 {
				recoveryP50 = f.RecoveryP50
			}
		}
		if d := rep.Dynamic; d != nil {
			migrations += d.Migrations
			degraded += d.FramesDropped
			if d.MigrationsFailed > 0 {
				r.failf("%s: %d migrations failed", file, d.MigrationsFailed)
			}
		}
		rt.Cluster.Close()

		// The set-up is repeated after the timed section — before it, the
		// discarded fleets change the heap the run starts with and moved
		// frames_per_s — and the median counts.
		for len(setups) < simSetups {
			_, again, took, err := setUpSim(filepath.Join(dir, file), nil)
			if err != nil {
				return err
			}
			again.Cluster.Close()
			setups = append(setups, took)
		}
		setup += median(setups)
	}

	if finalised != m.Frames {
		r.failf("%d frames finalised of %d attempted", finalised, m.Frames)
	}
	r.Failed += m.Frames - finalised + degraded
	if e := m.Expect; e != nil {
		n := len(m.Scenarios)
		if crashes != e.Crashes*n || migrations != e.Migrations*n {
			r.failf("scripted %d crashes and %d migrations per play; the reports have %d and %d over %d plays",
				e.Crashes, e.Migrations, crashes, migrations, n)
		}
	}

	// Keep the report text beside the inputs: when two repeats' digests
	// differ, a diff of two of these says where.
	r.Digest = digestOf(formats...)
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), []byte(strings.Join(formats, "\n")), 0o644); err != nil {
		return err
	}
	r.E2E["setup_s"] = setup
	r.E2E["frames_per_s"] = float64(finalised) / meter.wall
	r.E2E["f1_final"] = f1
	r.latencies(initial, final)

	meter.record(r, m.Frames)
	n, k := float64(m.Frames), float64(m.Frames)/1000
	l := r.Layer
	l["core.cloud_fraction"] = float64(sentToCloud) / n
	l["cluster.batches_per_kframe"] = float64(batches) / k
	if batches > 0 {
		l["cluster.mean_batch"] = float64(batchFrames) / float64(batches)
	}
	l["cluster.shed"] = float64(shed)
	l["cluster.max_flush_wait_ms"] = msOf(maxFlush)
	l["txn.txns_per_frame"] = float64(txns) / n
	l["txn.corrections_per_kframe"] = float64(corrections) / k
	l["txn.apologies_per_kframe"] = float64(apols) / k
	l["txn.retractions"] = float64(retractions)
	l["lock.waits_per_kframe"] = float64(lockWaits) / k
	if lockWaits > 0 {
		l["lock.wait_mean_us"] = float64(lockWaitTotal) / float64(lockWaits) / 1e3
	}
	l["store.reads_per_frame"] = float64(reads) / n
	l["store.writes_per_frame"] = float64(writes) / n
	l["sim.virtual_s_per_wall_s"] = virtual.Seconds() / meter.wall
	if sharded {
		l["twopc.cross_commits_per_frame"] = float64(cross) / n
		l["twopc.prepare_rpcs_per_frame"] = float64(prepares) / n
		l["twopc.lock_rpcs_per_frame"] = float64(lockRPCs) / n
		l["twopc.aborts"] = float64(aborts)
		l["twopc.map_retries"] = float64(mapRetries)
	}
	if durable {
		l["wal.records_replayed"] = float64(replayed)
		l["wal.checkpoints"] = float64(checkpoints)
		l["faults.txns_failed"] = float64(txnsFailed)
		l["faults.recovery_p50_ms"] = msOf(recoveryP50)
	}
	return nil
}
