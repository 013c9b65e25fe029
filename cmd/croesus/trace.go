package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"croesus/internal/obs"
	"croesus/internal/obs/collect"
)

// runTrace merges per-process JSONL span streams into one causally
// ordered distributed trace. Each process of a real deployment (croesus
// client, edge and cloud — all run with -trace) records spans against its
// own clock; the collector estimates per-process clock offsets from the
// RPC pairs in the trace itself (interval midpoints, median per process
// pair, composed by BFS from a reference process), shifts every span onto
// the reference clock, and writes the merged timeline as Chrome
// trace_event JSON (Perfetto-loadable) or JSONL.
//
// It also runs the streaming watchdog over the merged stream: standing
// trace invariants (a span's parent must exist; no child may start before
// its parent after alignment; no trace may end rootless) and SLO windows
// (deadline hit-rate, shed budget) become structured incidents. With
// -check, causality incidents are hard failures (exit 1) — the CI
// multi-process smoke runs exactly that.
//
//	croesus trace -o merged.json client.jsonl edge.jsonl cloud.jsonl
//	croesus trace -check -slo 250ms edge.jsonl cloud.jsonl
//	croesus trace -ref edge -tolerance 10ms -o merged.jsonl *.jsonl
func runTrace(args []string, stdout, stderr io.Writer) int {
	h := newHarness("trace", stderr, 0, 0)
	var (
		outPath   = h.fs.String("o", "", "write the merged trace here (.jsonl = JSONL, else Chrome trace_event JSON)")
		ref       = h.fs.String("ref", "", "reference process whose clock becomes the merged timeline (default: largest stream)")
		tolerance = h.fs.Duration("tolerance", collect.DefaultTolerance, "causality slack after clock alignment")
		check     = h.fs.Bool("check", false, "exit 1 when any causality incident survives (parent_missing, child_before_parent, span_leak)")
		slo       = h.fs.Duration("slo", 0, "per-frame deadline for SLO compliance windows (0 disables)")
		window    = h.fs.Int("window", 32, "frames per SLO compliance window")
		maxMiss   = h.fs.Float64("max-miss", 0.1, "tolerated deadline-miss fraction per window")
		maxShed   = h.fs.Float64("max-shed", 0.25, "tolerated shed fraction per window")
		incPath   = h.fs.String("incidents", "", "write incidents as JSONL to this file")
		quiet     = h.fs.Bool("q", false, "suppress the per-trace summary")
	)
	if code, ok := h.parse(args); !ok {
		return code
	}
	if h.fs.NArg() == 0 {
		return h.usage("no input files (pass one JSONL span stream per process)")
	}
	fail := func(format string, args ...any) int {
		h.log.Printf("trace: "+format, args...)
		return 1
	}

	streams := make([]collect.Stream, 0, h.fs.NArg())
	for _, path := range h.fs.Args() {
		st, err := collect.ReadFile(path)
		if err != nil {
			return fail("read %s: %v", path, err)
		}
		h.log.Printf("trace: %s: %d spans, proc %q", path, len(st.Spans), st.Proc)
		streams = append(streams, st)
	}

	m, err := collect.Merge(streams, collect.Options{Reference: *ref, Tolerance: *tolerance})
	if err != nil {
		return fail("%v", err)
	}
	for _, p := range m.Procs {
		h.log.Printf("trace: clock %-8s %+v (reference %s)", p, m.Offsets[p], m.Reference)
	}
	for pair, n := range m.Pairs {
		h.log.Printf("trace: alignment pair %s: %d samples", pair, n)
	}
	for _, p := range m.Unaligned {
		h.log.Printf("trace: WARNING: process %q has no RPC pair linking it to %q — left unaligned", p, m.Reference)
	}

	wd := collect.NewWatchdog(collect.WatchdogConfig{
		SLO: *slo, Window: *window,
		MaxMissRate: *maxMiss, MaxShedRate: *maxShed,
		Tolerance: m.Tolerance(),
	})
	for _, s := range m.Spans {
		wd.Feed(s)
	}
	incidents := wd.Finish()

	if !*quiet {
		fmt.Fprint(stdout, collect.FormatSummary(collect.Summarize(m.CriticalPaths())))
	}
	causality := 0
	for _, in := range incidents {
		if collect.CausalityKinds[in.Kind] {
			causality++
		}
		h.log.Printf("trace: incident %s at %v: %s", in.Kind, in.At, in.Detail)
	}
	h.log.Printf("trace: %d spans, %d incidents (%d causality)", len(m.Spans), len(incidents), causality)

	if *incPath != "" {
		err := writeFile(*incPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			for _, in := range incidents {
				if err := enc.Encode(in); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fail("write incidents: %v", err)
		}
	}
	if *outPath != "" {
		err := writeFile(*outPath, func(w io.Writer) error {
			if strings.HasSuffix(*outPath, ".jsonl") {
				return obs.WriteJSONL(w, m.Spans)
			}
			return m.WriteChrome(w, incidents)
		})
		if err != nil {
			return fail("write %s: %v", *outPath, err)
		}
		h.log.Printf("trace: wrote %s", *outPath)
	}
	if *check && causality > 0 {
		return fail("FAIL: %d causality incidents", causality)
	}
	return 0
}
