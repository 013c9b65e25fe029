// Inferencegraph: the same two-edge fleet run twice — once as the
// classic two-stage pipeline (edge initial → cloud final) and once over
// a depth-3 inference graph where an edge detector hands off to a
// peer-tier classifier on the neighboring edge, whose confidence switch
// either finishes early or escalates to a cloud verifier.
//
// Every graph node is one SECTION of the same multi-stage transaction:
// under MS-IA each boundary commits (and a late retraction cascades back
// through the earlier ones), under MS-SR the union of every section's
// locks is held from the first boundary to the last. The report
// decomposes latency per section, so the cost of each extra boundary is
// visible line by line.
//
// The graph scenario is also printed as its JSON encoding — exactly what
// `croesus-cluster -scenario` (and `-validate`) accepts — and runs
// unmodified on a wall clock with -timescale:
//
//	go run ./examples/inferencegraph
//	go run ./examples/inferencegraph -timescale 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"croesus"
)

var opts croesus.ScenarioOptions

func scenarioWith(name string, g *croesus.GraphSpec) *croesus.Scenario {
	return &croesus.Scenario{
		Version: 1,
		Name:    name,
		Seed:    42,
		Topology: croesus.ScenarioTopology{
			Edges: []croesus.ScenarioEdge{
				{ID: "west"},
				{ID: "east", Speed: 0.8},
			},
			Cameras: []croesus.ScenarioCamera{
				{ID: "corridor", Profile: "street-vehicles", Seed: 101, Frames: 60, Edge: "west"},
				{ID: "crossing", Profile: "street-person", Seed: 102, Frames: 60, Edge: "east"},
				{ID: "park", Profile: "park-dog", Seed: 103, Frames: 60, Edge: "west"},
			},
			Sharded:           true,
			CrossEdgeFraction: 0.25,
			Batcher:           croesus.ScenarioBatcher{MaxBatch: 8, SLO: croesus.ScenarioDuration(80 * time.Millisecond)},
			Graph:             g,
		},
	}
}

// depth3 is the inference graph: detect on the home edge, classify on
// the peer edge, and only low-confidence frames pay the cloud verifier.
func depth3() *croesus.GraphSpec {
	return &croesus.GraphSpec{Nodes: []croesus.GraphNodeSpec{
		{Name: "detect", Tier: "edge"},
		{Name: "classify", Tier: "peer", Model: croesus.ModelYOLO320, Switch: []croesus.SwitchBranchSpec{
			{Lo: 0, Hi: 0.6, To: "verify"},
			{Lo: 0.6, Hi: 1, To: "done"},
		}},
		{Name: "verify", Tier: "cloud", Model: croesus.ModelYOLO416},
	}}
}

func run(s *croesus.Scenario) {
	rep, err := croesus.RunScenarioWith(s, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("--- %s ---\n%s\n", s.Name, rep.Format())
}

func main() {
	flag.Float64Var(&opts.TimeScale, "timescale", 0,
		"0: virtual clock, deterministic; > 0: wall clock with modeled latencies multiplied by this")
	flag.Parse()

	// The baseline: no graph block at all — the classic two-stage
	// pipeline. An explicit {edge, cloud} graph would produce the very
	// same bytes; that equivalence is pinned by the cluster tests.
	run(scenarioWith("classic-two-stage", nil))

	// The depth-3 graph: one more boundary, decomposed per section in
	// the report's section rows.
	graph := scenarioWith("inference-graph-depth3", depth3())
	run(graph)

	data, err := graph.Encode()
	if err != nil {
		panic(err)
	}
	fmt.Println("the graph scenario as croesus-cluster -scenario JSON:")
	os.Stdout.Write(data)
}
