// Command croesus-bench regenerates the paper's evaluation: every table and
// figure of §5 plus the ablations of internal/experiments.
//
// Usage:
//
//	croesus-bench                      # run everything, print text tables
//	croesus-bench -run figure3         # one experiment
//	croesus-bench -list                # list experiment IDs
//	croesus-bench -frames 400          # bigger runs
//	croesus-bench -markdown -o experiments.md
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"croesus/internal/experiments"
	"croesus/internal/obs"
)

func main() {
	var (
		runID        = flag.String("run", "", "run a single experiment by ID (default: all)")
		list         = flag.Bool("list", false, "list experiment IDs and exit")
		frames       = flag.Int("frames", 0, "frames per video (default 160)")
		seed         = flag.Int64("seed", 0, "workload seed (default 42)")
		mu           = flag.Float64("mu", 0, "F-score constraint µ for optimal-threshold experiments (default 0.8)")
		markdown     = flag.Bool("markdown", false, "emit Markdown instead of text tables")
		outPath      = flag.String("o", "", "write output to a file instead of stdout")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		debugAddr    = flag.String("debug-addr", "", "serve /debug/vars (expvar) and /debug/pprof on this address while the run is in flight (e.g. 127.0.0.1:9414)")
		compare      = flag.String("compare", "", "run the transport micro-benchmark and gate it against this BENCH_N.json baseline (>25% ns/op growth fails)")
		benchJSON    = flag.String("bench-json", "", "with -compare or -cluster-scale: also write the measured results to this BENCH_N.json file")
		clusterScale = flag.Int("cluster-scale", 0, "run the fleet-simulation scale curve (64/256/1024 cameras) up to this many cameras (e.g. 64 for a CI smoke, 1024 for the full curve)")
	)
	flag.Parse()

	if *debugAddr != "" {
		o := obs.New()
		bound, err := obs.ServeDebug(*debugAddr, o.Reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "croesus-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "croesus-bench: debug endpoint on http://%s/debug/pprof\n", bound)
	}

	if *compare != "" || *clusterScale > 0 {
		var results []benchResult
		regressions := 0
		command := "croesus-bench"
		if *compare != "" {
			command += " -compare " + *compare
			results = runTransportBench()
			regressions = compareBench(*compare, results)
		}
		if *clusterScale > 0 {
			command += fmt.Sprintf(" -cluster-scale %d", *clusterScale)
			results = append(results, runClusterScaleBench(*clusterScale)...)
		}
		if *benchJSON != "" {
			writeBenchJSON(*benchJSON, command+" -bench-json "+*benchJSON, results,
				"Binary wire codec + pooled hot path (PR 10): transport rows measure per-message cost of the length-prefixed binary codec (gob retained only for the control channel) with pooled encode buffers, pooled ack waiters/timers, and RecvReuse ack reading — the untraced TCP path allocates nothing per message. Cluster-scale rows measure fleet-simulation throughput (16 cameras per edge, 8 frames per camera) on the sharded virtual-clock scheduler with the pooled detection/transaction hot path; ns_per_op is whole-run wall time, best of 3 after one warmup. Loopback timings on a shared container jitter by tens of percent; minima are stable to a few percent.")
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "croesus-bench: %d regression(s) over %.0f%% against %s\n", regressions, regressionThreshold*100, *compare)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "croesus-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "croesus-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "croesus-bench: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "croesus-bench: %v\n", err)
		}
	}()

	opts := experiments.Opts{Frames: *frames, Seed: *seed, Mu: *mu}
	var tables []experiments.Table
	start := time.Now()
	if *runID != "" {
		tab, ok := experiments.ByID(*runID, opts)
		if !ok {
			fmt.Fprintf(os.Stderr, "croesus-bench: unknown experiment %q (use -list)\n", *runID)
			os.Exit(2)
		}
		tables = []experiments.Table{tab}
	} else {
		tables = experiments.All(opts)
	}
	elapsed := time.Since(start)

	var b strings.Builder
	if *markdown {
		b.WriteString("# Croesus — Reproduced Evaluation\n\n")
		fmt.Fprintf(&b, "Generated by `croesus-bench` in %s (virtual-time simulation: the detectors, links and clocks are models, so shapes carry over from the paper, absolute numbers do not).\n\n", elapsed.Round(time.Millisecond))
		for _, t := range tables {
			b.WriteString(t.Markdown())
		}
	} else {
		for _, t := range tables {
			b.WriteString(t.Format())
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "total: %d experiment(s) in %s\n", len(tables), elapsed.Round(time.Millisecond))
	}

	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "croesus-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *outPath, len(tables))
		return
	}
	fmt.Print(b.String())
}
