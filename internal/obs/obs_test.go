package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTagsCanonical(t *testing.T) {
	if got := Tags("edge", "e1", "camera", "c0"); got != "camera=c0,edge=e1" {
		t.Fatalf("Tags not sorted: %q", got)
	}
	if got := Tags(); got != "" {
		t.Fatalf("empty Tags = %q", got)
	}
	if Tags("a", "1") != Tags("a", "1") {
		t.Fatal("Tags not stable")
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricFrames, Tags("edge", "e0")).Add(3)
	r.Gauge(MetricEdgeQueueDepth, Tags("edge", "e0")).Set(2)
	r.Histogram(MetricFinalLatency, Tags("edge", "e0")).Observe(42 * time.Millisecond)
	r.Histogram(MetricSectionLatency, Tags("edge", "e0", "section", "0")).Observe(9 * time.Millisecond)
	r.Histogram(MetricSectionLatency, Tags("edge", "e0", "section", "1")).Observe(33 * time.Millisecond)
	r.Counter(MetricSectionCommit, Tags("edge", "e0", "section", "1")).Inc()
	r.RegisterCollector(func(reg *Registry) {
		reg.Counter("croesus_collected_total", "").Add(1)
	})

	out := r.PrometheusText()
	for _, want := range []string{
		`croesus_frames_total{edge="e0"} 3`,
		`croesus_edge_queue_depth{edge="e0"} 2`,
		`croesus_final_latency_seconds_bucket{edge="e0",le="0.039848023"} 0`,
		`croesus_final_latency_seconds_bucket{edge="e0",le="0.099993329"} 1`,
		`croesus_final_latency_seconds_bucket{edge="e0",le="+Inf"} 1`,
		`croesus_final_latency_seconds_count{edge="e0"} 1`,
		`croesus_section_latency_seconds_bucket{edge="e0",section="0",le="0.015879709"} 1`,
		`croesus_section_latency_seconds_count{edge="e0",section="1"} 1`,
		`croesus_section_commits_total{edge="e0",section="1"} 1`,
		"# TYPE croesus_frames_total counter",
		"# TYPE croesus_edge_queue_depth gauge",
		"# TYPE croesus_final_latency_seconds histogram",
		"# TYPE croesus_section_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
	// Collector counters must not accumulate across scrapes beyond their
	// own semantics, and two scrapes of identical state are identical
	// except for the collector's own increment; check determinism with a
	// collector-free registry.
	r2 := NewRegistry()
	r2.Counter("a_total", Tags("x", "1")).Inc()
	r2.Histogram("lat_seconds", "").Observe(time.Millisecond)
	if r2.PrometheusText() != r2.PrometheusText() {
		t.Fatal("scrape output not deterministic")
	}
}

// TestPrometheusHistogramSeriesOrder parses a two-series histogram family
// and checks the exposition order Prometheus expects: series by label set,
// and within each its buckets in ascending le, then +Inf, _sum and _count.
func TestPrometheusHistogramSeriesOrder(t *testing.T) {
	r := NewRegistry()
	const name = "lat_seconds"
	for _, d := range []time.Duration{3 * time.Millisecond, 40 * time.Millisecond, 2 * time.Second} {
		r.Histogram(name, Tags("edge", "e1")).Observe(d)
	}
	r.Histogram(name, Tags("edge", "e0")).Observe(7 * time.Millisecond)

	type line struct{ series, kind, le string }
	var got []line
	for _, l := range strings.Split(strings.TrimSpace(r.PrometheusText()), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		metric, labels, ok := strings.Cut(strings.Fields(l)[0], "{")
		if !ok {
			t.Fatalf("series without labels: %q", l)
		}
		labels = strings.TrimSuffix(labels, "}")
		ln := line{kind: strings.TrimPrefix(metric, name)}
		labels, le, _ := strings.Cut(labels, `,le="`)
		ln.series, ln.le = labels, strings.TrimSuffix(le, `"`)
		got = append(got, ln)
	}
	var want []line
	for _, series := range []string{`edge="e0"`, `edge="e1"`} {
		for _, rung := range promLadder {
			want = append(want, line{series, "_bucket", strconv.FormatFloat(float64(bucketEdge(rung))/1e9, 'g', -1, 64)})
		}
		want = append(want, line{series, "_bucket", "+Inf"}, line{series, "_sum", ""}, line{series, "_count", ""})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scrape order:\n got  %v\n want %v", got, want)
	}
	prev := 0.0
	for i, l := range got {
		if l.kind != "_bucket" || l.le == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(l.le, 64)
		if err != nil {
			t.Fatalf("line %d: le %q: %v", i, l.le, err)
		}
		if i > 0 && got[i-1].series == l.series && le <= prev {
			t.Fatalf("line %d: le %s after %g, want ascending", i, l.le, prev)
		}
		prev = le
	}
}

func TestNilSafety(t *testing.T) {
	var o *Obs
	o.Span("x", "", 0, 1)
	o.Counter("c", "").Inc()
	o.Gauge("g", "").Add(2)
	o.Histogram("h", "").Observe(time.Second)
	var tr *Tracer
	tr.Emit("x", "", 0, 1)
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer returned data")
	}
	var r *Registry
	if r.PrometheusText() != "" || r.Counter("c", "") != nil {
		t.Fatal("nil registry not inert")
	}
	var h *Histogram
	h.Observe(time.Second)
	h.Merge(&Histogram{})
	(&Histogram{}).Merge(h)
	if h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("nil histogram not inert")
	}
}

func TestTracerCapDrops(t *testing.T) {
	tr := NewTracerCap(2)
	tr.Emit("a", "", 0, 1)
	tr.Emit("b", "", 1, 2)
	tr.Emit("c", "", 2, 3)
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("spans = %d, want 2", n)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	spans := []Span{
		{Name: "b", Tags: "edge=e1", Start: 5, End: 9},
		{Name: "a", Tags: "edge=e0", Start: 5, End: 9},
		{Name: "a", Tags: "edge=e0", Start: 1, End: 2},
	}
	// Reversed emission order must produce identical bytes.
	rev := []Span{spans[2], spans[1], spans[0]}
	var b1, b2 bytes.Buffer
	if err := WriteJSONL(&b1, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b2, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("JSONL not order-independent:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	first, _, _ := strings.Cut(b1.String(), "\n")
	if !strings.Contains(first, `"start":1`) {
		t.Fatalf("not sorted by start: %s", first)
	}
}

func TestWriteChromeTraceValid(t *testing.T) {
	spans := []Span{
		{Name: SpanEdgeDetect, Tags: Tags("edge", "e0", "camera", "c0"), Start: time.Millisecond, End: 3 * time.Millisecond},
		{Name: SpanTwoPC, Tags: Tags("edge", "e1"), Start: 2 * time.Millisecond, End: 8 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			complete++
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event missing ts: %v", ev)
			}
		}
	}
	if complete != len(spans) {
		t.Fatalf("complete events = %d, want %d", complete, len(spans))
	}
}
