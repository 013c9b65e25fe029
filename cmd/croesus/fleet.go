package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"time"

	"croesus/internal/fleet"
	"croesus/internal/obs"
	"croesus/internal/obs/collect"
	"croesus/internal/scenario"
)

// runFleet deploys a scenario on real processes: it spawns this executable
// as one cloud, one edge per topology edge, and one client per camera,
// plays the scenario's event timeline over each process's control channel,
// and merges the per-process reports into the same ClusterReport the
// simulated fleet prints — so one scenario file runs unchanged on the sim
// and on a real multi-process fleet, and is held to the same verdict
// (Scenario.Check): stderr carries "invariants: OK" or the first
// violation, and a violation exits 1, as a failed WAL verify does.
//
// The timeline is played by scenario.Play, the same player the simulated
// fleet uses; the process driver's verbs map each event to real actions:
// edge_crash is a SIGKILL (with restart_after, a respawn on the same
// address and WAL — clients redial, the store replays; a crash of an edge
// that is already dark does nothing), edge_retire drains the edge and
// migrates its cameras, link_fault blackholes the edge's modeled cloud
// path, workload_shift and migrate_camera steer the clients live.
//
//	croesus fleet -scenario testdata/fleet-crash.json -timescale 0.1
//	croesus fleet -scenario s.json -shaped -trace -workdir /tmp/fleet -json run.json
func runFleet(args []string, stdout, stderr io.Writer) int {
	h := newHarness("fleet", stderr, 0, 0)
	var (
		scenarioPath = h.fs.String("scenario", "", "scenario file to deploy (required): topology + event timeline, same schema as croesus cluster")
		workDir      = h.fs.String("workdir", "", "directory for WALs, logs, per-process reports, and traces (default: a fresh temp dir)")
		timeScale    = h.fs.Float64("timescale", 1.0, "wall-clock compression shared by every process: 0.1 runs a 20s scenario in ~2s")
		shaped       = h.fs.Bool("shaped", false, "shape each edge's client and cloud hops with the sim's modeled link parameters (latency + bandwidth)")
		trace        = h.fs.Bool("trace", false, "run every process with -trace, then merge, clock-align, and orphan-prune the spans into one distributed trace")
		frameTimeout = h.fs.Duration("frame-timeout", 30*time.Second, "wall bound on one frame's wait at a client before it counts as dropped")
		jsonOut      = h.fs.String("json", "", "write the run's merged report and verdicts as JSON to this file")
	)
	if code, ok := h.parse(args); !ok {
		return code
	}
	if *scenarioPath == "" {
		return h.usage("-scenario is required")
	}
	s, err := scenario.Load(*scenarioPath)
	if err != nil {
		h.log.Printf("fleet: %v", err)
		return 1
	}

	start := time.Now()
	res, err := fleet.Run(s, fleet.Options{
		WorkDir:      *workDir,
		TimeScale:    *timeScale,
		Shaped:       *shaped,
		Trace:        *trace,
		FrameTimeout: *frameTimeout,
		Logf:         h.log.Printf,
	})
	if err != nil {
		h.log.Printf("fleet: %v", err)
		return 1
	}

	// The merged report goes to stdout alone, like croesus cluster's;
	// verdicts and run facts go to stderr.
	io.WriteString(stdout, res.Report.Format())
	h.log.Printf("(scenario %q on fleet: %s of fleet time in %s of wall time; workdir %s)",
		s.Name, res.Report.Elapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond), res.WorkDir)
	for _, er := range res.Edges {
		switch {
		case er.DurableOK:
			h.log.Printf("durability %s: OK (%d WAL records, %d replayed at startup)", er.Edge, er.DurableRecords, er.WALReplayed)
		case er.DurableErr != "":
			h.log.Printf("durability %s: %s", er.Edge, er.DurableErr)
		}
	}
	if res.Trace != nil {
		h.log.Printf("trace: %d spans merged from %d streams (reference %s, %d orphans pruned), %d incidents",
			len(res.Trace.Spans), len(res.TraceFiles), res.Trace.Reference, res.PrunedSpans, len(res.Incidents))
		for _, inc := range res.Incidents {
			h.log.Printf("incident: %s", inc)
		}
		merged := filepath.Join(res.WorkDir, "trace-merged.jsonl")
		if err := writeFile(merged, func(w io.Writer) error { return obs.WriteJSONL(w, res.Trace.Spans) }); err != nil {
			h.log.Printf("fleet: merged trace: %v", err)
		} else {
			h.log.Printf("trace: merged stream written to %s", merged)
		}
	}
	if *jsonOut != "" {
		if err := writeRunJSON(*jsonOut, res); err != nil {
			h.log.Printf("fleet: -json: %v", err)
			return 1
		}
	}
	code := 0
	if err := s.Check(res.Report); err != nil {
		h.log.Printf("invariants: %v", err)
		code = 1
	} else {
		h.log.Print("invariants: OK")
	}
	if !res.DurabilityOK {
		h.log.Print("fleet: FAIL — a WAL verify did not match its edge's live store")
		code = 1
	}
	return code
}

// writeRunJSON serializes the run for machine consumption (the CI smoke
// asserts on these fields with jq).
func writeRunJSON(path string, res *fleet.Result) error {
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
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	})
}
