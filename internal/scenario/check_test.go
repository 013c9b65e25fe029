package scenario

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/faults"
)

// TestCheckShippedScenarios plays every scenario file in the tree on the
// sim and holds its report to the verdict its own timeline implies.
func TestCheckShippedScenarios(t *testing.T) {
	var paths []string
	for _, dir := range []string{filepath.Join("..", "..", "cmd", "croesus-cluster", "testdata"), "testdata"} {
		m, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) < 6 {
		t.Fatalf("found %d scenario files, want at least 6: %v", len(paths), paths)
	}
	for _, path := range paths {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Check(rep); err != nil {
				t.Error(err)
			}
		})
	}
}

// verdictScenario scripts one event of every counted kind, on three edges
// and three cameras (one of them joining).
func verdictScenario() *Scenario {
	rate := 2.0
	return &Scenario{
		Version: 1,
		Name:    "verdict",
		Topology: Topology{
			Edges: []Edge{{ID: "e0"}, {ID: "e1"}, {ID: "e2"}},
			Cameras: []Camera{
				{ID: "cam0", Profile: "park-dog", Edge: "e0"},
				{ID: "cam1", Profile: "mall-person", Edge: "e1"},
			},
		},
		Timeline: []Event{
			{At: Duration(time.Second), Do: KindCameraJoin, Join: &Camera{ID: "cam2", Profile: "street-vehicles", Edge: "e2"}},
			{At: Duration(2 * time.Second), Do: KindCameraLeave, Camera: "cam1"},
			{At: Duration(3 * time.Second), Do: KindWorkloadShift, Camera: "cam0", Rate: &rate},
			{At: Duration(4 * time.Second), Do: KindMigrateCamera, Camera: "cam0", To: "e1"},
			{At: Duration(5 * time.Second), Do: KindEdgeRetire, Edge: "e2"},
			{At: Duration(6 * time.Second), Do: KindLinkFault, A: "e0", B: "cloud", Heal: Duration(7 * time.Second)},
			{At: Duration(8 * time.Second), Do: KindEdgeCrash, Edge: "e0", RestartAfter: Duration(time.Second)},
		},
	}
}

// verdictReport is a report that shows exactly what verdictScenario
// scripts.
func verdictReport() *cluster.ClusterReport {
	return &cluster.ClusterReport{
		Cameras: make([]cluster.CameraReport, 3),
		Frames:  30,
		Dynamic: &cluster.DynamicReport{
			Joins: 1, Leaves: 1, WorkloadShifts: 1, Retired: 1, Migrations: 2, CloudLinkOutages: 1,
		},
		Faults: &faults.Report{Counters: faults.Counters{Crashes: 1, Restarts: 1, ReplayedRecords: 12}},
	}
}

// TestCheckCatchesEachProperty breaks one property of a report that
// passes: each break must fail the verdict and name the property.
func TestCheckCatchesEachProperty(t *testing.T) {
	s := verdictScenario()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(verdictReport()); err != nil {
		t.Fatalf("the report the timeline scripts fails: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(r *cluster.ClusterReport) *cluster.ClusterReport
		want string // "" passes
	}{
		{"no report", func(*cluster.ClusterReport) *cluster.ClusterReport { return nil }, "no report"},
		{"a camera missing", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Cameras = r.Cameras[1:]; return r }, "cameras 2"},
		{"no frames", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Frames = 0; return r }, "no frames"},
		{"join not run", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Dynamic.Joins = 0; return r }, "joins 0"},
		{"leave not run", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Dynamic.Leaves = 0; return r }, "leaves 0"},
		{"shift not run", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Dynamic.WorkloadShifts = 0; return r }, "workload shifts 0"},
		{"retire not run", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Dynamic.Retired = 0; return r }, "retired edges 0"},
		{"no migration", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Dynamic.Migrations = 0; return r }, "migrations 0"},
		{"a failed migration counts", func(r *cluster.ClusterReport) *cluster.ClusterReport {
			r.Dynamic.Migrations, r.Dynamic.MigrationsFailed = 0, 1
			return r
		}, ""},
		{"more migrations than cameras to move", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Dynamic.Migrations = 5; return r }, "migrations 5"},
		{"uplink fault not run", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Dynamic.CloudLinkOutages = 0; return r }, "cloud-link outages 0"},
		{"crash not run", func(r *cluster.ClusterReport) *cluster.ClusterReport {
			r.Faults.Crashes, r.Faults.Restarts = 0, 0
			return r
		}, "crashes 0"},
		{"an extra crash", func(r *cluster.ClusterReport) *cluster.ClusterReport {
			r.Faults.Crashes, r.Faults.Restarts = 2, 2
			return r
		}, "crashes 2"},
		{"restart not run", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Faults.Restarts = 0; return r }, "restarts 0"},
		{"nothing replayed", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Faults.ReplayedRecords = 0; return r }, "replayed no WAL records"},
		{"no dynamic report", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Dynamic = nil; return r }, "joins 0"},
		{"unsharded crash counted as an outage", func(r *cluster.ClusterReport) *cluster.ClusterReport {
			r.Faults = nil
			r.Dynamic.EdgeOutages, r.Dynamic.OutageRestores = 1, 1
			return r
		}, ""},
		{"unsharded crash not run", func(r *cluster.ClusterReport) *cluster.ClusterReport { r.Faults = nil; return r }, "crashes 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := s.Check(tc.edit(verdictReport()))
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("verdict failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("verdict = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestCheckRanges pins the counts that may legitimately come up short — a
// repeat fault on a target that may still be down (inside an earlier
// outage, within settle of its end, or after an armed 2PC crash), an armed
// 2PC crash that never fires, and a crash that never restarts — and the
// repeats that must count because the earlier outage has ended.
func TestCheckRanges(t *testing.T) {
	sec := func(n float64) Duration { return Duration(n * float64(time.Second)) }
	s := &Scenario{
		Version: 1,
		Name:    "ranges",
		Topology: Topology{
			Edges:   []Edge{{ID: "e0"}, {ID: "e1"}, {ID: "e2"}},
			Cameras: []Camera{{ID: "cam0", Profile: "park-dog", Edge: "e0"}},
			Sharded: true,
		},
		Timeline: []Event{
			{At: sec(1), Do: KindEdgeCrash, Edge: "e0", RestartAfter: sec(4)},
			{At: sec(2), Do: KindEdgeCrash, Edge: "e0", RestartAfter: sec(1)}, // inside e0's outage
			{At: sec(2), Do: KindTwoPCCrash, Edge: "e1", Point: PointAfterPrepare},
			{At: sec(10), Do: KindEdgeCrash, Edge: "e1", RestartAfter: sec(1)}, // the 2PC crash may hold e1
			// e2: an outage over 1s–2s, a repeat after it, and one within
			// settle of the repeat's end.
			{At: sec(1), Do: KindEdgeCrash, Edge: "e2", RestartAfter: sec(1)},
			{At: sec(5), Do: KindEdgeCrash, Edge: "e2", RestartAfter: sec(1)},
			{At: sec(6.5), Do: KindEdgeCrash, Edge: "e2", RestartAfter: sec(1)},
			{At: sec(3), Do: KindLinkFault, A: "e0", B: "cloud"},
			{At: sec(3), Do: KindLinkFault, A: "e0", B: "cloud"}, // never healed
			{At: sec(1), Do: KindLinkFault, A: "e1", B: "cloud", Heal: sec(2)},
			{At: sec(6), Do: KindLinkFault, A: "e1", B: "cloud", Heal: sec(7)}, // after the heal
			{At: sec(4), Do: KindCameraLeave, Camera: "cam0"},
			{At: sec(5), Do: KindCameraLeave, Camera: "cam0"},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	report := func(crashes, restarts int64, uplinks, leaves int) *cluster.ClusterReport {
		return &cluster.ClusterReport{
			Cameras: make([]cluster.CameraReport, 1),
			Frames:  10,
			Dynamic: &cluster.DynamicReport{CloudLinkOutages: uplinks, Leaves: leaves},
			Faults:  &faults.Report{Counters: faults.Counters{Crashes: crashes, Restarts: restarts, ReplayedRecords: 1}},
		}
	}
	for _, tc := range []struct {
		name              string
		crashes, restarts int64
		uplinks, leaves   int
		want              string // "" passes
	}{
		{"every repeat that may be absorbed absorbed, the 2PC crash unfired", 3, 3, 3, 1, ""},
		{"nothing absorbed, the 2PC crash fired and stayed down", 7, 6, 4, 2, ""},
		{"a crash after its edge restarted dropped", 2, 2, 3, 1, "crashes 2, the timeline scripts 3 to 7"},
		{"more crashes than scripted", 8, 8, 3, 1, "crashes 8"},
		{"a restarting crash left down", 4, 2, 3, 1, "restarts 2"},
		{"an uplink fault after its heal dropped", 3, 3, 2, 1, "cloud-link outages 2, the timeline scripts 3 to 4"},
		{"no leave", 3, 3, 3, 0, "leaves 0"},
		{"a third leave", 3, 3, 3, 3, "leaves 3"},
	} {
		err := s.Check(report(tc.crashes, tc.restarts, tc.uplinks, tc.leaves))
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: verdict = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
