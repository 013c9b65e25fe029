package main

import (
	"flag"
	"os"
	"testing"

	"croesus"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenReport runs testdata/<name>.json on the simulator, holds the report
// to the scenario's verdict, and compares it with testdata/<name>.golden
// byte for byte — CI runs the binary against the same pairs. If a change
// legitimately shifts the numbers,
// regenerate every fixture in the tree with
//
//	go test ./internal/experiments ./cmd/croesus-cluster -run Golden -update
func goldenReport(t *testing.T, name string) *croesus.ClusterReport {
	t.Helper()
	s, err := croesus.LoadScenario("testdata/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := croesus.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(rep); err != nil {
		t.Error(err)
	}
	got, path := rep.Format(), "testdata/"+name+".golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s scenario report drifted from the golden:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
	return rep
}

// TestScenarioGolden pins the checked-in scenario smoke run: the same
// scenario file must reproduce the same report byte for byte.
func TestScenarioGolden(t *testing.T) {
	goldenReport(t, "migrate")
}

// TestFleetCrashGolden pins the crash/WAL-recovery scenario that
// croesus-fleet also plays on real processes: its sim report, byte for
// byte.
func TestFleetCrashGolden(t *testing.T) {
	goldenReport(t, "fleet-crash")
}

// TestGraphScenarioGolden pins the inference-graph scenario smoke run:
// the depth-3 graph (edge detect → peer classify → cloud verify, with a
// confidence switch short-circuiting past the cloud) must reproduce the
// same per-section report byte for byte.
func TestGraphScenarioGolden(t *testing.T) {
	rep := goldenReport(t, "graph")
	if len(rep.Sections) != 3 {
		t.Fatalf("graph golden carries %d section rows, want 3", len(rep.Sections))
	}
}

// TestGraphScenarioOnTCP (the name predates the deletion of the in-process
// TCP switch) runs the same graph scenario file on a scaled wall clock: the
// run is truly concurrent and checked by counters, not bytes.
func TestGraphScenarioOnTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run in -short mode")
	}
	s, err := croesus.LoadScenario("testdata/graph.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := croesus.RunScenarioWith(s, croesus.ScenarioOptions{TimeScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 {
		t.Fatal("wall-clock graph run processed no frames")
	}
	if err := s.Check(rep); err != nil {
		t.Error(err)
	}
	if len(rep.Sections) != 3 {
		t.Fatalf("wall-clock graph run reports %d section rows, want 3", len(rep.Sections))
	}
}

// TestScenarioGoldenOnTCP (the name predates the deletion of the in-process
// TCP switch) runs the very same checked-in scenario file on a scaled wall
// clock. The run is truly concurrent, so it is not byte-pinned; instead it
// must pass the scenario's verdict and complete the fleet with validated
// frames and 2PC activity.
func TestScenarioGoldenOnTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run in -short mode")
	}
	s, err := croesus.LoadScenario("testdata/migrate.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := croesus.RunScenarioWith(s, croesus.ScenarioOptions{TimeScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 || rep.Validated == 0 {
		t.Errorf("wall-clock run validated nothing: %d frames, %d validated", rep.Frames, rep.Validated)
	}
	if got := rep.TwoPC.CrossEdgeCommits + rep.TwoPC.LocalCommits + rep.TwoPC.RemoteCommits; got == 0 {
		t.Error("wall-clock run counted no 2PC/commit activity")
	}
	if err := s.Check(rep); err != nil {
		t.Error(err)
	}
	// The verdict admits a failed migration (edges down past the retry
	// budget); this timeline's one migration has live edges on both ends,
	// so on a wall clock too its handoff must succeed.
	if rep.Dynamic == nil || rep.Dynamic.MigrationsFailed != 0 {
		t.Errorf("wall-clock migration failed: %+v", rep.Dynamic)
	}
}
