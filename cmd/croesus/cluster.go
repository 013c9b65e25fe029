package main

import (
	"fmt"
	"io"
	"time"

	"croesus/internal/node"
	"croesus/internal/scenario"
)

// runCluster runs a multi-camera edge fleet against one SLO-aware batched
// cloud validator on the virtual clock (or, with -timescale, a scaled wall
// clock) and prints the fleet report: per-camera accuracy and latency
// percentiles, fleet throughput, and the batcher's batching/shedding
// counters. The scenario's verdict (Scenario.Check: the counts its
// timeline scripts) goes to stderr as "invariants: OK" or the first
// violation, and a violation exits 1.
//
// The fleet is a declarative scenario file — topology plus event timeline
// (camera joins/leaves, migrations, workload shifts, faults, checkpoints);
// see the README's "Scenarios" section for the JSON schema:
//
//	croesus cluster -scenario testdata/migrate.json
//	croesus cluster -validate -scenario testdata/graph.json   # dry run
//	croesus cluster -scenario testdata/migrate.json -timescale 0.05
func runCluster(args []string, stdout, stderr io.Writer) int {
	h := newHarness("cluster", stderr, 0, debugFlag|traceFlag|profileFlags)
	var (
		scenarioPath = h.fs.String("scenario", "", "the declarative scenario file to run (topology + event timeline); required")
		validateOnly = h.fs.Bool("validate", false, "dry run: load and validate -scenario (including its graph block), print the resolved section plan, and exit without running the fleet")
		timeScale    = h.fs.Float64("timescale", 0, "0: virtual clock, byte-deterministic; > 0: run the same fleet on a wall clock with every modeled latency multiplied by this (0.05 runs a 20s scenario in ~1s); croesus fleet runs a scenario on real processes and sockets")
	)
	if code, ok := h.parse(args); !ok {
		return code
	}
	if *scenarioPath == "" {
		return h.usage("-scenario is required")
	}
	if *timeScale < 0 {
		return h.usage("-timescale %g is negative", *timeScale)
	}
	// Load runs the full decode + validation pass (strict fields, topology
	// references, graph shape); reaching this point means the file would run.
	s, err := scenario.Load(*scenarioPath)
	if err != nil {
		h.log.Printf("cluster: %v", err)
		return 1
	}

	if *validateOnly {
		proto := s.Topology.Protocol
		if proto == "" {
			proto = "ms-ia"
		}
		g := s.Topology.Graph
		if g == nil {
			// No graph block: the two-stage graph, shown as the default
			// spec it is equivalent to.
			g = &node.GraphSpec{Nodes: []node.GraphNodeSpec{{Tier: "edge"}, {Tier: "cloud"}}}
		}
		fmt.Fprintf(stdout, "scenario %q: valid\n", s.Name)
		fmt.Fprintf(stdout, "topology: %d edges, %d cameras, protocol %s, %d timeline events\n",
			len(s.Topology.Edges), len(s.Topology.Cameras), proto, len(s.Timeline))
		fmt.Fprintf(stdout, "section plan (%d sections):\n%s", len(g.Nodes), g.Plan())
		return 0
	}

	// The report itself never needs the observability layer; it is
	// threaded through the fleet only when -trace or -debug-addr asks.
	if err := h.start(""); err != nil {
		h.log.Printf("cluster: %v", err)
		return 1
	}
	start := time.Now()
	rep, err := scenario.RunWith(s, scenario.Options{TimeScale: *timeScale, Obs: h.obs})
	if err != nil {
		h.log.Printf("cluster: %v", err)
		return h.finish(1)
	}
	// The report goes to stdout alone (on the virtual clock it is
	// byte-reproducible and diffable against a golden); wall time is a side
	// note.
	fmt.Fprint(stdout, rep.Format())
	h.log.Printf("(scenario %q: %s of fleet time in %s of wall time)",
		s.Name, rep.Elapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	// The verdict is the last line on stderr, after the files are written.
	code := h.finish(0)
	if err := s.Check(rep); err != nil {
		h.log.Printf("invariants: %v", err)
		return 1
	}
	h.log.Print("invariants: OK")
	return code
}
