package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

func decodeChrome(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, b)
	}
	return doc.TraceEvents
}

func TestChromeTraceEscapesNamesAndTags(t *testing.T) {
	spans := []Span{
		{Name: `weird "name" \ with <tags>`, Tags: Tags("camera", `cam"0\`), Start: 0, End: time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	events := decodeChrome(t, buf.Bytes())
	found := false
	for _, ev := range events {
		if ev["ph"] != "X" {
			continue
		}
		found = true
		if got := ev["name"]; got != `weird "name" \ with <tags>` {
			t.Errorf("name round trip = %q", got)
		}
		args := ev["args"].(map[string]any)
		if got := args["camera"]; got != `cam"0\` {
			t.Errorf("tag value round trip = %q", got)
		}
	}
	if !found {
		t.Fatal("no span event in output")
	}
}

func TestChromeTraceEventOrdering(t *testing.T) {
	// Emitted deliberately out of order; the export must sort by start
	// time so identical multisets are byte-identical.
	spans := []Span{
		{Name: "late", Start: 30 * time.Millisecond, End: 40 * time.Millisecond},
		{Name: "early", Start: 10 * time.Millisecond, End: 20 * time.Millisecond},
		{Name: "middle", Start: 20 * time.Millisecond, End: 30 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var names []string
	var lastTS float64 = -1
	for _, ev := range decodeChrome(t, buf.Bytes()) {
		if ev["ph"] != "X" {
			continue
		}
		ts := ev["ts"].(float64)
		if ts < lastTS {
			t.Errorf("event %q at ts=%v out of order", ev["name"], ts)
		}
		lastTS = ts
		names = append(names, ev["name"].(string))
	}
	if want := []string{"early", "middle", "late"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("event order = %v, want %v", names, want)
	}

	// Timestamps are microseconds.
	events := decodeChrome(t, buf.Bytes())
	for _, ev := range events {
		if ev["name"] == "early" {
			if ev["ts"].(float64) != 10000 || ev["dur"].(float64) != 10000 {
				t.Errorf("early ts/dur = %v/%v µs, want 10000/10000", ev["ts"], ev["dur"])
			}
		}
	}
}

func TestChromeTraceTIDMapping(t *testing.T) {
	spans := []Span{
		{Name: "a", Tags: Tags("edge", "e1"), Start: 0, End: time.Millisecond},
		{Name: "b", Tags: Tags("edge", "e0"), Start: 0, End: time.Millisecond},
		{Name: "c", Tags: "", Start: 0, End: time.Millisecond},
		{Name: "d", Tags: Tags("edge", "e0"), Start: time.Millisecond, End: 2 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	events := decodeChrome(t, buf.Bytes())

	// Track names registered via thread_name metadata, in sorted-tag
	// order: "" (shown as fleet) < edge=e0 < edge=e1.
	trackName := map[int]string{}
	for _, ev := range events {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			args := ev["args"].(map[string]any)
			trackName[int(ev["tid"].(float64))] = args["name"].(string)
		}
	}
	if trackName[1] != "fleet" || trackName[2] != "edge=e0" || trackName[3] != "edge=e1" {
		t.Fatalf("track mapping = %v", trackName)
	}
	// Spans land on the track matching their tags; same tags share a tid,
	// and every event stays in the single simulated process (pid 1).
	spanTID := map[string]int{}
	for _, ev := range events {
		if ev["ph"] != "X" {
			continue
		}
		if pid := int(ev["pid"].(float64)); pid != 1 {
			t.Errorf("span %q pid = %d, want 1", ev["name"], pid)
		}
		spanTID[ev["name"].(string)] = int(ev["tid"].(float64))
	}
	if spanTID["b"] != spanTID["d"] {
		t.Errorf("same tag set split across tids: %v", spanTID)
	}
	if spanTID["c"] != 1 || spanTID["b"] != 2 || spanTID["a"] != 3 {
		t.Errorf("span→tid mapping = %v", spanTID)
	}
}

func TestRegistryCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.maxSeries = 3

	var admitted int
	for i := 0; i < 10; i++ {
		c := r.Counter("croesus_test_total", Tags("camera", "cam"+strconv.Itoa(i)))
		if c != nil {
			admitted++
		}
		c.Inc() // nil-safe either way
	}
	if admitted != 3 {
		t.Errorf("admitted %d series, want 3", admitted)
	}
	if got := r.Counter(MetricDroppedSeries, "").Value(); got != 7 {
		t.Errorf("dropped series = %d, want 7", got)
	}
	// The cap is per metric name: a different metric still admits series,
	// and re-resolving an existing series never counts as a drop.
	if g := r.Gauge("croesus_other_depth", Tags("edge", "e0")); g == nil {
		t.Error("different metric refused below its own cap")
	}
	if c := r.Counter("croesus_test_total", Tags("camera", "cam0")); c == nil {
		t.Error("existing series refused after cap reached")
	}
	if got := r.Counter(MetricDroppedSeries, "").Value(); got != 7 {
		t.Errorf("dropped series moved to %d on non-drops", got)
	}
	// Histograms share the same guard.
	r.maxSeries = 1
	if h := r.Histogram("croesus_lat_seconds", Tags("a", "1")); h == nil {
		t.Error("first histogram series refused")
	}
	if h := r.Histogram("croesus_lat_seconds", Tags("a", "2")); h != nil {
		t.Error("histogram series admitted past the cap")
	}
	// The drop counter itself is visible in scrapes.
	if !strings.Contains(r.PrometheusText(), MetricDroppedSeries) {
		t.Error("dropped-series counter missing from scrape")
	}
}

func TestRegistryDroppedSeriesExemptFromCap(t *testing.T) {
	r := NewRegistry()
	r.maxSeries = 1
	r.Counter("croesus_test_total", Tags("k", "a"))
	r.Counter("croesus_test_total", Tags("k", "b")) // dropped
	// The overflow counter must always be resolvable, even at cap 1 with
	// other metrics saturated — otherwise the guard hides its own signal.
	c := r.Counter(MetricDroppedSeries, "")
	if c == nil {
		t.Fatal("dropped-series counter refused by the cap")
	}
	if c.Value() != 1 {
		t.Errorf("dropped-series counter = %d, want 1", c.Value())
	}
}
