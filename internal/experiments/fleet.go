package experiments

import (
	"fmt"
	"os"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/fleet"
	"croesus/internal/scenario"
)

// fleetCrashScenario is the crash/migration scenario FleetCrash replays on
// every runtime. It follows cmd/croesus-cluster/testdata/fleet-crash.json
// but leaves out that file's workload_shift and checkpoint events
// (fleet-crash.golden pins the table this one produces).
func fleetCrashScenario(frames int) *scenario.Scenario {
	if frames <= 0 {
		frames = 40
	}
	return &scenario.Scenario{
		Version: 1,
		Name:    "fleet-crash",
		Seed:    42,
		Topology: scenario.Topology{
			Edges: []scenario.Edge{{ID: "e0"}, {ID: "e1"}},
			Cameras: []scenario.Camera{
				{ID: "cam0", Profile: "street-vehicles", Edge: "e0", Frames: frames},
				{ID: "cam1", Profile: "park-dog", Edge: "e1", Frames: frames},
				{ID: "cam2", Profile: "mall-person", Edge: "e0", Frames: frames},
			},
			Batcher: scenario.Batcher{MaxBatch: 8, SLO: scenario.Duration(80 * time.Millisecond)},
			// Durable engages the sim's WAL-backed crash recovery, so the
			// sim row reports the same replay/recovery columns the real
			// fleet does (fleet edges always run a WAL).
			Durable: true,
		},
		Timeline: []scenario.Event{
			{At: scenario.Duration(3 * time.Second), Do: scenario.KindEdgeCrash, Edge: "e0", RestartAfter: scenario.Duration(2 * time.Second)},
			{At: scenario.Duration(10 * time.Second), Do: scenario.KindMigrateCamera, Camera: "cam2", To: "e1"},
			{At: scenario.Duration(12 * time.Second), Do: scenario.KindLinkFault, A: "e1", B: "cloud", Heal: scenario.Duration(14 * time.Second)},
			{At: scenario.Duration(17 * time.Second), Do: scenario.KindCameraLeave, Camera: "cam1"},
		},
	}
}

// fleetInvariants checks the cross-runtime invariants the sim run
// establishes: every camera reported, frames flowed, the scripted crash
// was executed and recovered, and the WAL replay happened. Returns "OK"
// or the first violation.
func fleetInvariants(r *cluster.ClusterReport, cams int) string {
	switch {
	case r == nil:
		return "no report"
	case len(r.Cameras) != cams:
		return fmt.Sprintf("%d cameras, want %d", len(r.Cameras), cams)
	case r.Frames == 0:
		return "no frames completed"
	case r.Validated == 0:
		return "no frame cloud-validated"
	case r.Faults == nil:
		return "no fault report"
	case r.Faults.Crashes != 1 || r.Faults.Restarts != 1:
		return fmt.Sprintf("crashes/restarts %d/%d, want 1/1", r.Faults.Crashes, r.Faults.Restarts)
	case r.Faults.ReplayedRecords == 0:
		return "no WAL records replayed on recovery"
	case r.Dynamic == nil || r.Dynamic.Migrations != 1:
		return "migration not executed"
	}
	return "OK"
}

// FleetCrash replays one crash/migration scenario on the simulator and,
// when CROESUS_FLEET_BIN names a directory with the croesus-edge/cloud/
// client binaries, on a real multi-process fleet via the croesus-fleet
// orchestration library — and checks the merged report of each runtime
// against the same invariants. This is the acceptance experiment for the
// multi-process deployment: one scenario JSON, N real processes, one
// ClusterReport shape.
func FleetCrash(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "fleet-crash",
		Title:  "crash + WAL recovery + migration, same scenario on every runtime",
		Header: []string{"runtime", "frames", "validated", "replayed", "recovery p50", "final p50", "invariants"},
		Notes: []string{
			"sim runs on the virtual clock (deterministic); the fleet runs real processes on a scaled wall clock, latencies normalized by the time scale",
			"fleet row: crash = SIGKILL of the croesus-edge process, recovery = respawn on the same address + WAL replay, durability verified against the live store",
			"set CROESUS_FLEET_BIN to a directory holding croesus-edge/croesus-cloud/croesus-client to run the multi-process row (CI smoke does)",
		},
	}
	frames := 40
	if o.Frames < frames {
		frames = o.Frames
	}
	s := fleetCrashScenario(frames)

	addRow := func(runtime string, r *cluster.ClusterReport, extra string) {
		replayed, recovery := int64(0), time.Duration(0)
		if r != nil && r.Faults != nil {
			replayed = r.Faults.ReplayedRecords
			recovery = r.Faults.RecoveryP50
		}
		inv := fleetInvariants(r, len(s.Topology.Cameras))
		if inv == "OK" && extra != "" {
			inv = extra
		}
		frames, validated := 0, 0
		var p50 time.Duration
		if r != nil {
			frames, validated, p50 = r.Frames, r.Validated, r.FinalP50
		}
		t.Rows = append(t.Rows, []string{
			runtime, fmt.Sprint(frames), fmt.Sprint(validated), fmt.Sprint(replayed),
			ms(recovery) + " ms", ms(p50) + " ms", inv,
		})
	}

	simRep, err := scenario.Run(s)
	if err != nil {
		t.Notes = append(t.Notes, "sim run failed: "+err.Error())
	} else {
		addRow("sim", simRep, "")
	}

	bin := os.Getenv("CROESUS_FLEET_BIN")
	if bin == "" {
		t.Rows = append(t.Rows, []string{"fleet", "-", "-", "-", "-", "-", "skipped (CROESUS_FLEET_BIN unset)"})
		return t
	}
	res, err := fleet.Run(s, fleet.Options{BinDir: bin, TimeScale: 0.1})
	if err != nil {
		t.Rows = append(t.Rows, []string{"fleet", "-", "-", "-", "-", "-", "run failed: " + err.Error()})
		return t
	}
	extra := ""
	if !res.DurabilityOK {
		extra = "WAL verify failed against the live store"
	}
	addRow("fleet", res.Report, extra)
	return t
}
