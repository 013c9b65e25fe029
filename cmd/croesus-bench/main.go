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
		runID      = flag.String("run", "", "run a single experiment by ID (default: all)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		frames     = flag.Int("frames", 0, "frames per video (default 160)")
		seed       = flag.Int64("seed", 0, "workload seed (default 42)")
		mu         = flag.Float64("mu", 0, "F-score constraint µ for optimal-threshold experiments (default 0.8)")
		markdown   = flag.Bool("markdown", false, "emit Markdown instead of text tables")
		outPath    = flag.String("o", "", "write output to a file instead of stdout")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/vars (expvar) and /debug/pprof on this address while the run is in flight (e.g. 127.0.0.1:9414)")
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
