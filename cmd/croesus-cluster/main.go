// Command croesus-cluster runs a multi-camera edge fleet against one
// SLO-aware batched cloud validator on the virtual clock (or, with
// -timescale, a scaled wall clock) and prints the fleet report: per-camera
// accuracy and latency percentiles, fleet throughput, and the batcher's
// batching/shedding counters.
//
// The preferred interface is a declarative scenario file — topology plus
// event timeline (camera joins/leaves, migrations, workload shifts,
// faults, checkpoints); see the README's "Scenarios" section for the JSON
// schema:
//
//	croesus-cluster -scenario testdata/migrate.json
//
// The flag-assembled fleet remains for quick static runs (it is the
// deprecated path — every flag below maps to a scenario field):
//
//	croesus-cluster                          # 4 cameras, 2 edges
//	croesus-cluster -cameras 16 -edges 4     # bigger fleet
//	croesus-cluster -policy least-loaded     # placement policy
//	croesus-cluster -slo 40ms -pending 8 -cloud-speed 0.2   # overload
//	croesus-cluster -cross-edge 0.3 -protocol ms-sr          # sharded keyspace
//	croesus-cluster -cross-edge 0.3 -zipf 1.3                # hot shards
//	croesus-cluster -cross-edge 0.3 -crash-edge 1 -crash-at 5s -crash-restart 2s
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"croesus"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "run a declarative scenario file (topology + event timeline) instead of the flag-built fleet")
		validateOnly = flag.Bool("validate", false, "dry run: load and validate -scenario (including its graph block), print the resolved section plan, and exit without running the fleet")
		traceOut     = flag.String("trace", "", "write the run's span trace to this file: Chrome trace_event JSON (open in Perfetto) by default, sorted JSONL when the name ends in .jsonl")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics (Prometheus text), /debug/vars (expvar), and /debug/pprof on this address during the run (e.g. 127.0.0.1:9090)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		timeScale    = flag.Float64("timescale", 0, "0: virtual clock, byte-deterministic; > 0: run the same fleet on a wall clock with every modeled latency multiplied by this (0.05 runs a 20s scenario in ~1s); croesus-fleet runs a scenario on real processes and sockets")
		nCams        = flag.Int("cameras", 4, "number of camera streams")
		nEdges       = flag.Int("edges", 2, "number of edge nodes")
		frames       = flag.Int("frames", 120, "frames per camera")
		seed         = flag.Int64("seed", 42, "model and video seed")
		policy       = flag.String("policy", "round-robin", "placement policy: round-robin or least-loaded")
		maxBatch     = flag.Int("batch", 8, "cloud batch size cap")
		slo          = flag.Duration("slo", 80*time.Millisecond, "cloud batch flush deadline")
		pending      = flag.Int("pending", 0, "admission-control cap on outstanding validations (default 4×batch)")
		cloudSpeed   = flag.Float64("cloud-speed", 1.0, "cloud machine speed factor (lower = starved GPU)")
		thetaL       = flag.Float64("theta-l", 0.40, "lower bandwidth threshold θL")
		thetaU       = flag.Float64("theta-u", 0.62, "upper bandwidth threshold θU")
		sharded      = flag.Bool("sharded", false, "shard the fleet keyspace across the edges (implied by -cross-edge > 0)")
		crossEdge    = flag.Float64("cross-edge", 0, "fraction of workload keys owned by another edge's shard [0,1]")
		protocol     = flag.String("protocol", "ms-ia", "multi-stage protocol: ms-ia or ms-sr")
		zipf         = flag.Float64("zipf", 0, "Zipf exponent for sharded workload keys (0 = uniform, >1 = skewed hot shards)")
		crashEdge    = flag.Int("crash-edge", -1, "fail-stop this edge mid-run (WAL-backed recovery; implies -sharded)")
		crashAt      = flag.Duration("crash-at", 5*time.Second, "virtual time of the scripted crash")
		crashRest    = flag.Duration("crash-restart", 2*time.Second, "outage length before the edge recovers from its WAL")
	)
	flag.Parse()
	if *timeScale < 0 {
		fmt.Fprintf(os.Stderr, "croesus-cluster: -timescale %g is negative\n", *timeScale)
		os.Exit(2)
	}

	if *validateOnly {
		if *scenarioPath == "" {
			fmt.Fprintln(os.Stderr, "croesus-cluster: -validate needs a -scenario file to check")
			os.Exit(2)
		}
		// Load runs the full decode + validation pass (strict fields,
		// topology references, graph shape); reaching this point means the
		// file would run.
		s, err := croesus.LoadScenario(*scenarioPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
			os.Exit(1)
		}
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
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
			os.Exit(1)
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
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/metrics\n", addr)
	}

	if *scenarioPath != "" {
		s, err := croesus.LoadScenario(*scenarioPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		rep, err := croesus.RunScenarioWith(s, croesus.ScenarioOptions{TimeScale: *timeScale, Obs: o})
		if err != nil {
			fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
			os.Exit(1)
		}
		// The report goes to stdout alone (on the virtual clock it is
		// byte-reproducible and diffable against a golden); wall time is a
		// side note.
		fmt.Print(rep.Format())
		fmt.Fprintf(os.Stderr, "(scenario %q: %s of fleet time in %s of wall time)\n",
			s.Name, rep.Elapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
		writeTrace(*traceOut, o)
		return
	}

	var proto croesus.ClusterTxnProtocol
	switch *protocol {
	case "ms-ia":
		proto = croesus.TxnMSIA
	case "ms-sr":
		proto = croesus.TxnMSSR
	default:
		fmt.Fprintf(os.Stderr, "croesus-cluster: unknown protocol %q\n", *protocol)
		os.Exit(2)
	}

	var placement croesus.Placement
	switch *policy {
	case "round-robin":
		placement = &croesus.RoundRobin{}
	case "least-loaded":
		placement = croesus.LeastLoaded{}
	default:
		fmt.Fprintf(os.Stderr, "croesus-cluster: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	profiles := croesus.Videos()
	cams := make([]croesus.CameraSpec, *nCams)
	for i := range cams {
		cams[i] = croesus.CameraSpec{
			ID:      fmt.Sprintf("cam%d", i),
			Profile: profiles[i%len(profiles)],
			Seed:    *seed + int64(i)*101,
			Frames:  *frames,
		}
	}
	edges := make([]croesus.EdgeSpec, *nEdges)
	for i := range edges {
		edges[i] = croesus.EdgeSpec{ID: fmt.Sprintf("edge%d", i)}
	}

	var plan *croesus.FaultPlan
	if *crashEdge >= 0 {
		if *crashEdge >= *nEdges {
			fmt.Fprintf(os.Stderr, "croesus-cluster: -crash-edge %d out of range (have %d edges)\n", *crashEdge, *nEdges)
			os.Exit(2)
		}
		plan = &croesus.FaultPlan{
			Crashes: []croesus.EdgeCrash{{Edge: *crashEdge, At: *crashAt, RestartAfter: *crashRest}},
		}
	}

	// The flag-built fleet honors -timescale too.
	clk := croesus.Clock(croesus.NewSimClock())
	if *timeScale > 0 {
		clk = croesus.NewScaledRealClock(*timeScale)
	}

	start := time.Now()
	rep, err := croesus.RunCluster(croesus.ClusterConfig{
		Clock:             clk,
		Cameras:           cams,
		Edges:             edges,
		Placement:         placement,
		Seed:              *seed,
		ThetaL:            *thetaL,
		ThetaU:            *thetaU,
		Sharded:           *sharded,
		CrossEdgeFraction: *crossEdge,
		Protocol:          proto,
		ZipfSkew:          *zipf,
		Faults:            plan,
		Obs:               o,
		Batcher: croesus.BatcherConfig{
			MaxBatch:   *maxBatch,
			SLO:        *slo,
			MaxPending: *pending,
			CloudSpeed: *cloudSpeed,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep.Format())
	fmt.Printf("(simulated %s of fleet time in %s of wall time)\n",
		rep.Elapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	writeTrace(*traceOut, o)
}

// writeTrace exports the collected spans: Chrome trace_event JSON, or
// sorted JSONL when path ends in .jsonl.
func writeTrace(path string, o *croesus.Obs) {
	if path == "" || o == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "croesus-cluster: %v\n", err)
		os.Exit(1)
	}
	spans := o.Trace.Spans()
	if err := croesus.WriteTraceFile(f, path, spans); err != nil {
		fmt.Fprintf(os.Stderr, "croesus-cluster: writing trace: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "croesus-cluster: writing trace: %v\n", err)
		os.Exit(1)
	}
	if d := o.Trace.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d spans dropped at the tracer's capacity — the file is incomplete\n", d)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(spans), path)
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
