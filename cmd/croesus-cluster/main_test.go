package main

import (
	"flag"
	"os"
	"testing"

	"croesus"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenReport runs testdata/<name>.json on the simulator and compares the
// report with testdata/<name>.golden byte for byte — CI runs the binary
// against the same pairs. If a change legitimately shifts the numbers,
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

// TestGraphScenarioOnTCP runs the same graph scenario file over the
// loopback TCP transport: the cloud-tier section crosses the real socket
// per boundary, so the run is wall-clock concurrent and checked by
// counters, not bytes.
func TestGraphScenarioOnTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP run in -short mode")
	}
	s, err := croesus.LoadScenario("testdata/graph.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := croesus.RunScenarioWith(s, croesus.ScenarioOptions{Transport: croesus.TransportTCP, TimeScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 {
		t.Fatal("TCP graph run processed no frames")
	}
	if rep.Transport == nil || rep.Transport.Name != "tcp" || rep.Transport.Messages == 0 {
		t.Fatalf("no transport traffic recorded: %+v", rep.Transport)
	}
}

// TestScenarioGoldenOnTCP runs the very same checked-in scenario file over
// the loopback TCP transport — the unified-runtime acceptance: one
// scenario JSON, two deployments. The TCP run is wall-clock concurrent,
// so it is not byte-pinned; instead it must complete the whole fleet with
// validated, 2PC, fault, and transport counters populated, and the
// timeline's edge crash must show up as transport-level teardowns.
func TestScenarioGoldenOnTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP run in -short mode")
	}
	s, err := croesus.LoadScenario("testdata/migrate.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := croesus.RunScenarioWith(s, croesus.ScenarioOptions{Transport: croesus.TransportTCP, TimeScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 || rep.Validated == 0 {
		t.Errorf("TCP run validated nothing: %d frames, %d validated", rep.Frames, rep.Validated)
	}
	if got := rep.TwoPC.CrossEdgeCommits + rep.TwoPC.LocalCommits + rep.TwoPC.RemoteCommits; got == 0 {
		t.Error("TCP run counted no 2PC/commit activity")
	}
	if rep.Faults == nil || rep.Faults.Crashes == 0 || rep.Faults.Restarts == 0 {
		t.Errorf("timeline faults did not execute over TCP: %+v", rep.Faults)
	}
	if rep.Dynamic == nil || rep.Dynamic.Migrations != 1 {
		t.Errorf("timeline migration did not execute over TCP: %+v", rep.Dynamic)
	}
	if rep.Transport == nil || rep.Transport.Name != "tcp" || rep.Transport.Messages == 0 {
		t.Fatalf("no transport traffic recorded: %+v", rep.Transport)
	}
	if rep.Transport.Severs == 0 {
		t.Errorf("the edge_crash caused no transport teardown: %+v", rep.Transport)
	}
}
