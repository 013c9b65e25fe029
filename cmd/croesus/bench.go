package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"croesus/internal/experiments"
)

// runBench regenerates the paper's evaluation: every table and figure of
// §5 plus the ablations of internal/experiments.
//
//	croesus bench                      # run everything, print text tables
//	croesus bench -run figure3         # one experiment
//	croesus bench -list                # list experiment IDs
//	croesus bench -frames 400          # bigger runs
//	croesus bench -markdown -o experiments.md
func runBench(args []string, stdout, stderr io.Writer) int {
	h := newHarness("bench", stderr, 0, debugFlag|profileFlags)
	var (
		runID    = h.fs.String("run", "", "run a single experiment by ID (default: all)")
		list     = h.fs.Bool("list", false, "list experiment IDs and exit")
		frames   = h.fs.Int("frames", 0, "frames per video (default 160)")
		seed     = h.fs.Int64("seed", 0, "workload seed (default 42)")
		mu       = h.fs.Float64("mu", 0, "F-score constraint µ for optimal-threshold experiments (default 0.8)")
		markdown = h.fs.Bool("markdown", false, "emit Markdown instead of text tables")
		outPath  = h.fs.String("o", "", "write output to a file instead of stdout")
	)
	if code, ok := h.parse(args); !ok {
		return code
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if err := h.start(""); err != nil {
		h.log.Printf("bench: %v", err)
		return 1
	}

	opts := experiments.Opts{Frames: *frames, Seed: *seed, Mu: *mu}
	var tables []experiments.Table
	start := time.Now()
	if *runID != "" {
		tab, ok := experiments.ByID(*runID, opts)
		if !ok {
			return h.finish(h.usage("unknown experiment %q (use -list)", *runID))
		}
		tables = []experiments.Table{tab}
	} else {
		tables = experiments.All(opts)
	}
	elapsed := time.Since(start)

	var b strings.Builder
	if *markdown {
		b.WriteString("# Croesus — Reproduced Evaluation\n\n")
		fmt.Fprintf(&b, "Generated by `croesus bench` in %s (virtual-time simulation: the detectors, links and clocks are models, so shapes carry over from the paper, absolute numbers do not).\n\n", elapsed.Round(time.Millisecond))
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

	if *outPath == "" {
		io.WriteString(stdout, b.String())
		return h.finish(0)
	}
	if err := os.WriteFile(*outPath, []byte(b.String()), 0o644); err != nil {
		h.log.Printf("bench: %v", err)
		return h.finish(1)
	}
	fmt.Fprintf(stdout, "wrote %s (%d experiments)\n", *outPath, len(tables))
	return h.finish(0)
}
