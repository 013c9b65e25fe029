package collect

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"croesus/internal/obs"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// twoProcStreams builds an edge stream and a cloud stream whose clocks
// differ by a known offset: the cloud's clock reads `skew` LESS than the
// edge's at the same instant, so alignment must ADD skew to cloud spans.
// Each frame contributes a frame.root, an rpc.cloud envelope on the edge,
// and a symmetric cloud.request child on the cloud clock.
func twoProcStreams(skew time.Duration, frames int) []Stream {
	var edge, cloud []obs.Span
	for i := 0; i < frames; i++ {
		trace := uint64(100 + i)
		base := time.Duration(i) * time.Second
		rootID := uint64(1000 + i)
		rpcID := uint64(2000 + i)
		cloudID := uint64(3000 + i)
		edge = append(edge,
			obs.Span{Name: obs.SpanFrameRoot, Start: base, End: base + ms(400), Trace: trace, ID: rootID},
			obs.Span{Name: obs.SpanEdgeDetect, Start: base + ms(10), End: base + ms(60), Trace: trace, Parent: rootID},
			obs.Span{Name: obs.SpanRPCCloud, Start: base + ms(100), End: base + ms(300), Trace: trace, ID: rpcID, Parent: rootID},
		)
		// The cloud handles the request in edge-time [base+140, base+260]
		// — symmetric inside the RPC envelope — but records it on its own
		// clock, which reads skew less.
		cloud = append(cloud,
			obs.Span{Name: obs.SpanCloudRequest, Start: base + ms(140) - skew, End: base + ms(260) - skew, Trace: trace, ID: cloudID, Parent: rpcID},
			obs.Span{Name: obs.SpanBatchRun, Start: base + ms(160) - skew, End: base + ms(240) - skew, Trace: trace, Parent: cloudID},
		)
	}
	return []Stream{{Proc: "edge", Spans: edge}, {Proc: "cloud", Spans: cloud}}
}

func TestMergeRecoversKnownClockOffset(t *testing.T) {
	const skew = 7 * time.Second
	m, err := Merge(twoProcStreams(skew, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The edge stream is larger, so it becomes the reference.
	if m.Reference != "edge" {
		t.Fatalf("reference = %q, want edge", m.Reference)
	}
	if got := m.Offsets["cloud"]; got != skew {
		t.Fatalf("cloud offset = %v, want %v", got, skew)
	}
	if m.Offsets["edge"] != 0 {
		t.Fatalf("reference offset = %v, want 0", m.Offsets["edge"])
	}
	if len(m.Unaligned) != 0 {
		t.Fatalf("unaligned = %v, want none", m.Unaligned)
	}
	if m.Pairs["cloud→edge"] != 3 {
		t.Fatalf("pairs = %v, want 3 cloud→edge samples", m.Pairs)
	}
	// After alignment the cloud.request spans sit back inside their RPC
	// envelopes on the edge timeline.
	for _, s := range m.Spans {
		if s.Name == obs.SpanCloudRequest {
			off := (s.Start - ms(140)) % time.Second
			if off != 0 {
				t.Errorf("cloud.request start %v not shifted onto the edge clock", s.Start)
			}
		}
	}
	// And the watchdog sees a causally clean trace.
	wd := NewWatchdog(WatchdogConfig{Tolerance: m.Tolerance()})
	for _, s := range m.Spans {
		wd.Feed(s)
	}
	for _, in := range wd.Finish() {
		if CausalityKinds[in.Kind] {
			t.Errorf("unexpected causality incident after alignment: %+v", in)
		}
	}
}

func TestMergeExplicitReference(t *testing.T) {
	const skew = 2 * time.Second
	m, err := Merge(twoProcStreams(skew, 2), Options{Reference: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reference != "cloud" {
		t.Fatalf("reference = %q, want cloud", m.Reference)
	}
	// Composing the other direction: edge spans shift DOWN by skew.
	if got := m.Offsets["edge"]; got != -skew {
		t.Fatalf("edge offset = %v, want %v", got, -skew)
	}
	if _, err := Merge(twoProcStreams(skew, 2), Options{Reference: "nosuch"}); err == nil {
		t.Fatal("merge with unknown reference succeeded")
	}
}

func TestMergeDeterministicUnderInputOrder(t *testing.T) {
	render := func(streams []Stream) ([]byte, []byte) {
		m, err := Merge(streams, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wd := NewWatchdog(WatchdogConfig{SLO: ms(350), Window: 2, Tolerance: m.Tolerance()})
		for _, s := range m.Spans {
			wd.Feed(s)
		}
		incidents := wd.Finish()
		var jsonl, chrome bytes.Buffer
		if err := obs.WriteJSONL(&jsonl, m.Spans); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteChrome(&chrome, incidents); err != nil {
			t.Fatal(err)
		}
		return jsonl.Bytes(), chrome.Bytes()
	}

	a := twoProcStreams(3*time.Second, 4)
	j1, c1 := render(a)

	// Same span multiset, streams reversed and spans within each reversed.
	b := twoProcStreams(3*time.Second, 4)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	for _, st := range b {
		for i, j := 0, len(st.Spans)-1; i < j; i, j = i+1, j-1 {
			st.Spans[i], st.Spans[j] = st.Spans[j], st.Spans[i]
		}
	}
	j2, c2 := render(b)

	if !bytes.Equal(j1, j2) {
		t.Error("merged JSONL differs under input reordering")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("merged Chrome trace differs under input reordering")
	}
}

func TestMergeSingleStreamIsIdentity(t *testing.T) {
	spans := []obs.Span{
		{Name: "a", Start: ms(1), End: ms(2), Trace: 1, ID: 10},
		{Name: "b", Start: ms(2), End: ms(3), Trace: 1, Parent: 10},
	}
	m, err := Merge([]Stream{{Proc: "sim", Spans: spans}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range m.Spans {
		if s.Start != spans[i].Start || s.End != spans[i].End {
			t.Errorf("span %d shifted: %+v", i, s)
		}
	}
	if _, err := Merge(nil, Options{}); err == nil {
		t.Error("merge of zero streams succeeded")
	}
}

func TestReadJSONLRoundTrip(t *testing.T) {
	spans := []obs.Span{
		{Name: "edge.detect", Tags: "edge=e0", Start: ms(5), End: ms(9), Trace: 3, ID: 7, Parent: 2, Proc: "edge"},
		{Name: "frame.root", Start: 0, End: ms(20), Trace: 3, ID: 2},
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]obs.Span, len(spans))
	copy(want, spans)
	obs.SortSpans(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	if _, err := ReadJSONL(bytes.NewReader([]byte("{not json}\n"))); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestReadFileProcFallsBackToName(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edge.jsonl")
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, []obs.Span{{Name: "a", End: ms(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Proc != "edge" {
		t.Errorf("proc = %q, want edge (from file name)", st.Proc)
	}
}

func TestWatchdogParentMissing(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{})
	wd.Feed(obs.Span{Name: "frame.root", Trace: 1, ID: 1, Start: 0, End: ms(10)})
	wd.Feed(obs.Span{Name: "edge.detect", Trace: 1, ID: 2, Parent: 999, Start: ms(1), End: ms(2), Proc: "edge"})
	incidents := wd.Finish()
	if len(incidents) != 1 || incidents[0].Kind != IncidentParentMissing {
		t.Fatalf("incidents = %+v, want one parent_missing", incidents)
	}
	if incidents[0].Span != 2 || incidents[0].Proc != "edge" {
		t.Errorf("incident attribution wrong: %+v", incidents[0])
	}
}

func TestWatchdogChildBeforeParentOrderIndependent(t *testing.T) {
	child := obs.Span{Name: "edge.detect", Trace: 1, ID: 2, Parent: 1, Start: ms(0), End: ms(5)}
	parent := obs.Span{Name: "frame.root", Trace: 1, ID: 1, Start: ms(100), End: ms(200)}

	for name, order := range map[string][]obs.Span{
		"parent-first": {parent, child},
		"child-first":  {child, parent},
	} {
		wd := NewWatchdog(WatchdogConfig{Tolerance: ms(5)})
		for _, s := range order {
			wd.Feed(s)
		}
		incidents := wd.Finish()
		if len(incidents) != 1 || incidents[0].Kind != IncidentChildBeforeParent {
			t.Errorf("%s: incidents = %+v, want one child_before_parent", name, incidents)
		}
	}

	// Within tolerance: no incident.
	wd := NewWatchdog(WatchdogConfig{Tolerance: ms(5)})
	wd.Feed(obs.Span{Name: "frame.root", Trace: 1, ID: 1, Start: ms(3), End: ms(20)})
	wd.Feed(obs.Span{Name: "edge.detect", Trace: 1, ID: 2, Parent: 1, Start: ms(0), End: ms(5)})
	if incidents := wd.Finish(); len(incidents) != 0 {
		t.Errorf("slack violated: %+v", incidents)
	}
}

func TestWatchdogSpanLeak(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{})
	// An untraced parent plus a traced child whose trace never roots: the
	// emitter shut down before the frame's root span closed.
	wd.Feed(obs.Span{Name: "batch.run", ID: 2, Start: 0, End: ms(10)})
	wd.Feed(obs.Span{Name: "batch.queue", Trace: 5, ID: 3, Parent: 2, Start: ms(1), End: ms(2), Proc: "cloud"})
	incidents := wd.Finish()
	if len(incidents) != 1 || incidents[0].Kind != IncidentSpanLeak {
		t.Fatalf("incidents = %+v, want one span_leak", incidents)
	}
	if incidents[0].Trace != 5 {
		t.Errorf("leak attributed to trace %d, want 5", incidents[0].Trace)
	}
}

func TestWatchdogQueueStuck(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{})
	at := time.Duration(0)
	feedQueue := func(dur time.Duration) {
		wd.Feed(obs.Span{Name: obs.SpanBatchQueue, Start: at, End: at + dur})
		at += dur
	}
	// Growing run of 10 ≥ queueStuckLen — exactly one incident for the
	// whole run.
	for i := 0; i < 10; i++ {
		feedQueue(ms(10 + i))
	}
	// Shrinking wait resets the run; a short second run stays silent.
	feedQueue(ms(1))
	feedQueue(ms(2))
	incidents := wd.Finish()
	if len(incidents) != 1 || incidents[0].Kind != IncidentQueueStuck {
		t.Fatalf("incidents = %+v, want one queue_stuck", incidents)
	}
}

func TestWatchdogSLOWindow(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{
		SLO: ms(100), Window: 4, MaxMissRate: 0.25, MaxShedRate: 0.25,
	})
	at := time.Duration(0)
	root := func(dur time.Duration) {
		wd.Feed(obs.Span{Name: obs.SpanClientFrame, Trace: uint64(at) + 1, Start: at, End: at + dur})
		at += time.Second
	}
	// Window 1: 2/4 misses (50% > 25%) and 2 sheds (50% > 25%).
	wd.Feed(obs.Span{Name: obs.SpanBatchShed, Start: at, End: at})
	wd.Feed(obs.Span{Name: obs.SpanBatchShed, Start: at, End: at})
	root(ms(50))
	root(ms(200))
	root(ms(300))
	root(ms(50))
	// Window 2 (flushed by Finish): all within deadline, no sheds.
	root(ms(10))
	root(ms(20))
	incidents := wd.Finish()
	kinds := map[string]int{}
	for _, in := range incidents {
		kinds[in.Kind]++
	}
	if kinds[IncidentSLOMissRate] != 1 || kinds[IncidentShedBudget] != 1 || len(incidents) != 2 {
		t.Fatalf("incidents = %+v, want one slo_miss_rate + one shed_budget", incidents)
	}
	// A nested frame.root under a client.frame must not double-count the
	// window denominator.
	wd2 := NewWatchdog(WatchdogConfig{SLO: ms(100), Window: 2, MaxMissRate: 0.4})
	wd2.Feed(obs.Span{Name: obs.SpanClientFrame, Trace: 1, ID: 1, Start: 0, End: ms(200)})
	wd2.Feed(obs.Span{Name: obs.SpanFrameRoot, Trace: 1, ID: 2, Parent: 1, Start: ms(1), End: ms(199)})
	wd2.Feed(obs.Span{Name: obs.SpanClientFrame, Trace: 2, ID: 3, Start: time.Second, End: time.Second + ms(10)})
	incidents = wd2.Finish()
	if len(incidents) != 1 || incidents[0].Kind != IncidentSLOMissRate {
		t.Fatalf("incidents = %+v, want one slo_miss_rate over a 2-frame window", incidents)
	}
}

func TestCriticalPathDecomposition(t *testing.T) {
	spans := []obs.Span{
		{Name: obs.SpanFrameRoot, Trace: 1, ID: 1, Start: 0, End: ms(100)},
		{Name: obs.SpanEdgeDetect, Trace: 1, Parent: 1, Start: ms(10), End: ms(30)},
		{Name: obs.SpanRPCCloud, Trace: 1, ID: 2, Parent: 1, Start: ms(30), End: ms(90)},
		{Name: obs.SpanCloudRequest, Trace: 1, ID: 3, Parent: 2, Start: ms(40), End: ms(80)},
		{Name: obs.SpanBatchQueue, Trace: 1, Parent: 3, Start: ms(45), End: ms(55)},
		{Name: obs.SpanBatchRun, Trace: 1, Parent: 3, Start: ms(55), End: ms(75)},
	}
	m, err := Merge([]Stream{{Proc: "sim", Spans: spans}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := m.CriticalPaths()
	if len(paths) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(paths))
	}
	p := paths[0]
	want := map[string]time.Duration{
		CompCompute: ms(40), // edge.detect 20 + batch.run 20
		CompQueue:   ms(10), // batch.queue
		// rpc.cloud self time (60−40) + cloud.request self time (40−30).
		CompNetwork: ms(30),
		CompOther:   ms(20), // 100 − 80 accounted
	}
	if p.Total != ms(100) || p.Root != obs.SpanFrameRoot {
		t.Errorf("root/total = %q/%v, want frame.root/100ms", p.Root, p.Total)
	}
	if !reflect.DeepEqual(p.Components, want) {
		t.Errorf("components = %v, want %v", p.Components, want)
	}

	sum := Summarize(paths)
	if sum.Traces != 1 || sum.P50 != ms(100) || sum.Max != ms(100) {
		t.Errorf("summary = %+v", sum)
	}
	if FormatSummary(sum) == "" {
		t.Error("empty summary text")
	}

	// A rootless trace is skipped (the watchdog reports it as a leak).
	m2, err := Merge([]Stream{{Proc: "sim", Spans: []obs.Span{
		{Name: obs.SpanEdgeDetect, Trace: 9, Start: 0, End: ms(5)},
	}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.CriticalPaths(); len(got) != 0 {
		t.Errorf("rootless trace produced a breakdown: %+v", got)
	}
}

func TestWriteChromeMergedShape(t *testing.T) {
	m, err := Merge(twoProcStreams(time.Second, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	inc := []Incident{{Kind: IncidentSpanLeak, Proc: "edge", Trace: 100, At: ms(1), Detail: "x"}}
	if err := m.WriteChrome(&buf, inc); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged Chrome trace is not valid JSON: %v", err)
	}
	procNames := map[string]bool{}
	var instants int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				args := ev["args"].(map[string]any)
				procNames[args["name"].(string)] = true
			}
		case "i":
			instants++
		}
	}
	if !procNames["edge"] || !procNames["cloud"] {
		t.Errorf("process_name metadata missing: %v", procNames)
	}
	if instants != 1 {
		t.Errorf("got %d instant events, want 1 incident marker", instants)
	}
}
