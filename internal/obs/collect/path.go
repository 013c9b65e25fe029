package collect

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"croesus/internal/obs"
)

// Component names for the latency decomposition.
const (
	CompCompute = "compute"
	CompQueue   = "queue"
	CompLock    = "lock"
	CompTwoPC   = "twopc"
	CompNetwork = "network"
	CompOther   = "other"
)

// Components lists the decomposition buckets in reporting order.
var Components = []string{CompCompute, CompQueue, CompLock, CompTwoPC, CompNetwork, CompOther}

// componentOf buckets a span name; "" means the span is structural (a
// root or an RPC envelope) and is not summed directly.
func componentOf(name string) string {
	switch name {
	case obs.SpanEdgeDetect, obs.SpanNodeDetect, obs.SpanCloudValidate, obs.SpanBatchRun, obs.SpanFrameIngest:
		return CompCompute
	case obs.SpanPoolWait, obs.SpanBatchQueue:
		return CompQueue
	case obs.SpanLockWait, obs.SpanLockAbort:
		return CompLock
	case obs.SpanTwoPC:
		return CompTwoPC
	case obs.SpanUplink:
		return CompNetwork
	default:
		return ""
	}
}

// PathBreakdown decomposes one trace's end-to-end latency.
type PathBreakdown struct {
	Trace uint64
	Root  string // root span name (client.frame when a client traced it)
	Total time.Duration
	// Components maps component name → time attributed to it. The
	// network bucket includes the true per-hop segment of each
	// cross-process RPC: the parent rpc.cloud (or client.frame) interval
	// minus the remote child's interval — wire time plus kernel/socket
	// overhead, measured without any modeled link.
	Components map[string]time.Duration
}

// CriticalPaths decomposes every trace in the merged set. Spans are
// attributed by name (componentOf); RPC envelope spans contribute their
// duration minus their remote children as network; the residual under
// the root is "other". Sibling overlap within a component is not
// de-duplicated — the decomposition reports where time was spent, summed
// per bucket, not a strict wall-clock partition.
func (m *Merged) CriticalPaths() []PathBreakdown {
	byTrace := make(map[uint64][]obs.Span)
	for _, s := range m.Spans {
		if s.Trace != 0 {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	traces := make([]uint64, 0, len(byTrace))
	for t := range byTrace {
		traces = append(traces, t)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i] < traces[j] })

	out := make([]PathBreakdown, 0, len(traces))
	for _, t := range traces {
		spans := byTrace[t]
		// Children grouped by parent for RPC-gap computation.
		childDur := make(map[uint64]time.Duration)
		for _, s := range spans {
			if s.Parent != 0 {
				childDur[s.Parent] += s.End - s.Start
			}
		}
		pb := PathBreakdown{Trace: t, Components: make(map[string]time.Duration, len(Components))}
		var root obs.Span
		for _, s := range spans {
			dur := s.End - s.Start
			switch {
			case s.Name == obs.SpanClientFrame:
				root = s
			case s.Name == obs.SpanFrameRoot:
				if root.Name == "" {
					root = s
				}
			case s.Name == obs.SpanRPCCloud || s.Name == obs.SpanCloudRequest:
				// RPC envelopes: self time (minus remote/queued children)
				// is the hop's true network + dispatch segment.
				gap := dur - childDur[s.ID]
				if gap < 0 {
					gap = 0
				}
				pb.Components[CompNetwork] += gap
			default:
				if c := componentOf(s.Name); c != "" {
					pb.Components[c] += dur
				}
			}
		}
		if root.Name == "" {
			continue // no root span — watchdog reports it as a leak
		}
		pb.Root = root.Name
		pb.Total = root.End - root.Start
		var known time.Duration
		for _, v := range pb.Components {
			known += v
		}
		if rest := pb.Total - known; rest > 0 {
			pb.Components[CompOther] = rest
		}
		out = append(out, pb)
	}
	return out
}

// PathSummary aggregates breakdowns: per-component totals plus latency
// percentiles over trace totals.
type PathSummary struct {
	Traces             int
	Components         map[string]time.Duration
	P50, P90, P99, Max time.Duration
}

// Summarize aggregates the per-trace breakdowns.
func Summarize(paths []PathBreakdown) PathSummary {
	sum := PathSummary{Traces: len(paths), Components: make(map[string]time.Duration)}
	var totals obs.Histogram
	for _, p := range paths {
		totals.Observe(p.Total)
		for k, v := range p.Components {
			sum.Components[k] += v
		}
	}
	sum.P50, sum.P90, sum.P99, sum.Max = totals.Quantile(0.50), totals.Quantile(0.90), totals.Quantile(0.99), totals.Max()
	return sum
}

// FormatSummary renders the summary for terminal output.
func FormatSummary(s PathSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d traces  p50=%v p90=%v p99=%v max=%v\n", s.Traces, s.P50, s.P90, s.P99, s.Max)
	for _, c := range Components {
		if v, ok := s.Components[c]; ok {
			fmt.Fprintf(&b, "  %-8s %v\n", c, v)
		}
	}
	return b.String()
}

// chromeEvent mirrors the trace_event "X"/"i" shapes.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes the merged trace in Chrome trace_event format with
// one pid per process (named via process_name metadata) and one tid per
// tag set within it. Incidents become global instant events. Output is
// deterministic for a fixed merged span multiset.
func (m *Merged) WriteChrome(w io.Writer, incidents []Incident) error {
	pid := make(map[string]int, len(m.Procs))
	for i, p := range m.Procs {
		pid[p] = i + 1
	}
	// tid per (proc, tags), deterministic order.
	type track struct{ proc, tags string }
	seen := make(map[track]bool)
	var tracks []track
	for _, s := range m.Spans {
		tr := track{s.Proc, s.Tags}
		if !seen[tr] {
			seen[tr] = true
			tracks = append(tracks, tr)
		}
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].proc != tracks[j].proc {
			return tracks[i].proc < tracks[j].proc
		}
		return tracks[i].tags < tracks[j].tags
	})
	tid := make(map[track]int, len(tracks))
	next := make(map[string]int, len(m.Procs))
	events := make([]any, 0, len(m.Spans)+len(tracks)+len(m.Procs)+len(incidents))
	for _, p := range m.Procs {
		name := p
		if name == "" {
			name = "sim"
		}
		events = append(events, chromeMeta{
			Name: "process_name", Ph: "M", PID: pid[p], TID: 0,
			Args: map[string]any{"name": name},
		})
	}
	for _, tr := range tracks {
		next[tr.proc]++
		tid[tr] = next[tr.proc]
		name := tr.tags
		if name == "" {
			name = "fleet"
		}
		events = append(events, chromeMeta{
			Name: "thread_name", Ph: "M", PID: pid[tr.proc], TID: tid[tr],
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range m.Spans {
		ev := chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			PID: pid[s.Proc], TID: tid[track{s.Proc, s.Tags}],
		}
		args := make(map[string]string)
		if s.Tags != "" {
			for _, pair := range strings.Split(s.Tags, ",") {
				k, v, _ := strings.Cut(pair, "=")
				args[k] = v
			}
		}
		if s.Trace != 0 {
			args["trace"] = obs.U64(s.Trace)
		}
		if len(args) > 0 {
			ev.Args = args
		}
		events = append(events, ev)
	}
	for _, in := range incidents {
		ev := chromeEvent{
			Name: "incident:" + in.Kind, Ph: "i",
			TS: float64(in.At) / 1e3, PID: pid[in.Proc], S: "g",
			Args: map[string]string{"detail": in.Detail},
		}
		if in.Trace != 0 {
			ev.Args["trace"] = obs.U64(in.Trace)
		}
		events = append(events, ev)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
