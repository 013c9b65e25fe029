// Command croesus-cluster runs a multi-camera edge fleet against one
// SLO-aware batched cloud validator on the virtual clock (or, with
// -timescale, a scaled wall clock) and prints the fleet report: per-camera
// accuracy and latency percentiles, fleet throughput, and the batcher's
// batching/shedding counters. The scenario's verdict (Scenario.Check: the
// counts its timeline scripts) goes to stderr as "invariants: OK" or the
// first violation, and a violation exits 1.
//
// The fleet is a declarative scenario file — topology plus event timeline
// (camera joins/leaves, migrations, workload shifts, faults, checkpoints);
// see the README's "Scenarios" section for the JSON schema:
//
//	croesus-cluster -scenario testdata/migrate.json
//	croesus-cluster -validate -scenario testdata/graph.json   # dry run
//	croesus-cluster -scenario testdata/migrate.json -timescale 0.05
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"croesus"
)

func main() { os.Exit(run()) }

// run is the command; its exit code comes back to main only after its
// defers (the CPU and heap profiles) have run.
func run() int {
	var (
		scenarioPath = flag.String("scenario", "", "the declarative scenario file to run (topology + event timeline); required")
		validateOnly = flag.Bool("validate", false, "dry run: load and validate -scenario (including its graph block), print the resolved section plan, and exit without running the fleet")
		traceOut     = flag.String("trace", "", "write the run's span trace to this file: Chrome trace_event JSON (open in Perfetto) by default, sorted JSONL when the name ends in .jsonl")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics (Prometheus text), /debug/vars (expvar), and /debug/pprof on this address during the run (e.g. 127.0.0.1:9090)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		timeScale    = flag.Float64("timescale", 0, "0: virtual clock, byte-deterministic; > 0: run the same fleet on a wall clock with every modeled latency multiplied by this (0.05 runs a 20s scenario in ~1s); croesus-fleet runs a scenario on real processes and sockets")
	)
	flag.Parse()
	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "croesus-cluster: -scenario is required")
		return 2
	}
	if *timeScale < 0 {
		fmt.Fprintf(os.Stderr, "croesus-cluster: -timescale %g is negative\n", *timeScale)
		return 2
	}
	// Load runs the full decode + validation pass (strict fields, topology
	// references, graph shape); reaching this point means the file would run.
	s, err := croesus.LoadScenario(*scenarioPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
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
			g = &croesus.GraphSpec{Nodes: []croesus.GraphNodeSpec{{Tier: "edge"}, {Tier: "cloud"}}}
		}
		fmt.Printf("scenario %q: valid\n", s.Name)
		fmt.Printf("topology: %d edges, %d cameras, protocol %s, %d timeline events\n",
			len(s.Topology.Edges), len(s.Topology.Cameras), proto, len(s.Timeline))
		fmt.Printf("section plan (%d sections):\n%s", len(g.Nodes), g.Plan())
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProfile)

	// Observability: a tracer + registry threaded through the fleet when
	// anything will consume them. The report itself never needs it.
	var o *croesus.Obs
	if *traceOut != "" || *debugAddr != "" {
		o = croesus.NewObs()
	}
	if *debugAddr != "" {
		addr, err := croesus.ServeDebug(*debugAddr, o.Reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/metrics\n", addr)
	}

	start := time.Now()
	rep, err := croesus.RunScenarioWith(s, croesus.ScenarioOptions{TimeScale: *timeScale, Obs: o})
	if err != nil {
		fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
		return 1
	}
	// The report goes to stdout alone (on the virtual clock it is
	// byte-reproducible and diffable against a golden); wall time is a side
	// note.
	fmt.Print(rep.Format())
	fmt.Fprintf(os.Stderr, "(scenario %q: %s of fleet time in %s of wall time)\n",
		s.Name, rep.Elapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	if err := writeTrace(*traceOut, o); err != nil {
		fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
		return 1
	}
	if err := s.Check(rep); err != nil {
		fmt.Fprintf(os.Stderr, "invariants: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "invariants: OK")
	return 0
}

// writeTrace exports the collected spans: Chrome trace_event JSON, or
// sorted JSONL when path ends in .jsonl.
func writeTrace(path string, o *croesus.Obs) error {
	if path == "" || o == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := o.Trace.Spans()
	if err := errors.Join(croesus.WriteTraceFile(f, path, spans), f.Close()); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if d := o.Trace.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d spans dropped at the tracer's capacity — the file is incomplete\n", d)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(spans), path)
	return nil
}

// writeMemProfile snapshots the heap to path at exit (no-op when unset).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
	}
}
