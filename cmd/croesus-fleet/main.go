// Command croesus-fleet deploys a scenario on real processes: it spawns
// croesus-cloud, one croesus-edge per topology edge, and one
// croesus-client per camera, plays the scenario's event timeline over each
// process's control channel, and merges the per-process reports into the
// same ClusterReport the simulated fleet prints — so one scenario file
// runs unchanged on the sim and on a real multi-process fleet.
//
// The timeline is played by scenario.Play, the same player the simulated
// fleet uses; the process driver's verbs map each event to real actions:
// edge_crash is a SIGKILL (with restart_after, a respawn on the same
// address and WAL — clients redial, the store replays; a crash of an edge
// that is already dark does nothing), edge_retire drains the edge and
// migrates its cameras, link_fault blackholes the edge's modeled cloud
// path, workload_shift and migrate_camera steer the clients live.
//
// Usage:
//
//	croesus-fleet -scenario testdata/fleet-crash.json -bin ./bin -timescale 0.1
//	croesus-fleet -scenario s.json -shaped -trace -workdir /tmp/fleet -json run.json
//
// -bin defaults to this executable's directory, so a `go build -o dir/` of
// croesus-fleet, croesus-edge, croesus-cloud, and croesus-client needs no
// further flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"croesus/internal/fleet"
	"croesus/internal/obs"
	"croesus/internal/obs/collect"
	"croesus/internal/scenario"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario file to deploy (required): topology + event timeline, same schema as croesus-cluster")
		binDir       = flag.String("bin", "", "directory holding the croesus-edge/croesus-cloud/croesus-client binaries (default: this executable's directory)")
		workDir      = flag.String("workdir", "", "directory for WALs, logs, per-process reports, and traces (default: a fresh temp dir)")
		timeScale    = flag.Float64("timescale", 1.0, "wall-clock compression shared by every process: 0.1 runs a 20s scenario in ~2s")
		shaped       = flag.Bool("shaped", false, "shape each edge's client and cloud hops with the sim's modeled link parameters (latency + bandwidth)")
		trace        = flag.Bool("trace", false, "run every process with -trace, then merge, clock-align, and orphan-prune the spans into one distributed trace")
		frameTimeout = flag.Duration("frame-timeout", 30*time.Second, "wall bound on one frame's wait at a client before it counts as dropped")
		jsonOut      = flag.String("json", "", "write the run's merged report and verdicts as JSON to this file")
	)
	flag.Parse()

	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "croesus-fleet: -scenario is required")
		os.Exit(2)
	}
	s, err := scenario.Load(*scenarioPath)
	if err != nil {
		fatalf("%v", err)
	}

	opts := fleet.Options{
		BinDir:       *binDir,
		WorkDir:      *workDir,
		TimeScale:    *timeScale,
		Shaped:       *shaped,
		Trace:        *trace,
		FrameTimeout: *frameTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if opts.BinDir == "" {
		exe, err := os.Executable()
		if err != nil {
			fatalf("cannot locate binaries: %v (pass -bin)", err)
		}
		opts.BinDir = filepath.Dir(exe)
	}

	start := time.Now()
	res, err := fleet.Run(s, opts)
	if err != nil {
		fatalf("%v", err)
	}

	// The merged report goes to stdout alone, like croesus-cluster's;
	// verdicts and run facts go to stderr.
	fmt.Print(res.Report.Format())
	fmt.Fprintf(os.Stderr, "(scenario %q on fleet: %s of fleet time in %s of wall time; workdir %s)\n",
		s.Name, res.Report.Elapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond), res.WorkDir)
	for _, er := range res.Edges {
		switch {
		case er.DurableOK:
			fmt.Fprintf(os.Stderr, "durability %s: OK (%d WAL records, %d replayed at startup)\n", er.Edge, er.DurableRecords, er.WALReplayed)
		case er.DurableErr != "":
			fmt.Fprintf(os.Stderr, "durability %s: %s\n", er.Edge, er.DurableErr)
		}
	}
	if res.Trace != nil {
		fmt.Fprintf(os.Stderr, "trace: %d spans merged from %d streams (reference %s, %d orphans pruned), %d incidents\n",
			len(res.Trace.Spans), len(res.TraceFiles), res.Trace.Reference, res.PrunedSpans, len(res.Incidents))
		for _, inc := range res.Incidents {
			fmt.Fprintf(os.Stderr, "incident: %s\n", inc)
		}
		merged := filepath.Join(res.WorkDir, "trace-merged.jsonl")
		if err := writeSpans(merged, res.Trace.Spans); err != nil {
			fmt.Fprintf(os.Stderr, "croesus-fleet: merged trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "trace: merged stream written to %s\n", merged)
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fatalf("-json: %v", err)
		}
	}
	if !res.DurabilityOK {
		fmt.Fprintln(os.Stderr, "croesus-fleet: FAIL — a WAL verify did not match its edge's live store")
		os.Exit(1)
	}
}

func writeSpans(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON serializes the run for machine consumption (the CI smoke
// asserts on these fields with jq).
func writeJSON(path string, res *fleet.Result) error {
	out := struct {
		Report       any                  `json:"report"`
		Clients      []fleet.ClientReport `json:"clients"`
		Edges        []fleet.EdgeReport   `json:"edges"`
		Cloud        *fleet.CloudReport   `json:"cloud,omitempty"`
		DurabilityOK bool                 `json:"durability_ok"`
		PrunedSpans  int                  `json:"pruned_spans"`
		Incidents    []collect.Incident   `json:"incidents,omitempty"`
		WorkDir      string               `json:"workdir"`
	}{res.Report, res.Clients, res.Edges, res.Cloud, res.DurabilityOK, res.PrunedSpans, res.Incidents, res.WorkDir}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "croesus-fleet: "+format+"\n", args...)
	os.Exit(1)
}
