package obs

import (
	"expvar"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil counter is a
// no-op, so call sites resolved through a disabled registry cost one
// branch.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-or-adjust metric (queue depths, in-flight work).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reports the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the fixed histogram bounds, in seconds,
// used for every latency histogram in the fleet: 1ms to 10s in a
// 1-2.5-5 ladder, wide enough for both the simulator's modeled
// latencies and the scaled TCP deployment.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Bounds are upper bucket
// edges in seconds; an observation lands in the first bucket whose bound
// is ≥ the value (Prometheus "le" semantics), or the implicit +Inf
// bucket. Counts and the nanosecond sum are atomics, so Observe is safe
// from any goroutine and never blocks.
type Histogram struct {
	bounds []float64 // upper edges, seconds, strictly increasing
	counts []atomic.Int64
	inf    atomic.Int64
	sumNS  atomic.Int64
	n      atomic.Int64
}

// NewHistogram returns a histogram with the given upper bounds in
// seconds (nil means DefaultLatencyBuckets). Bounds must be strictly
// increasing.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	sec := d.Seconds()
	for i, b := range h.bounds {
		if sec <= b {
			h.counts[i].Add(1)
			h.sumNS.Add(int64(d))
			h.n.Add(1)
			return
		}
	}
	h.inf.Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// Count reports the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum reports the sum of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// Buckets returns the cumulative bucket counts in "le" order, one per
// bound plus the final +Inf bucket.
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.bounds)+1)
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	out[len(h.bounds)] = cum + h.inf.Load()
	return out
}

// Merge folds other's observations into h. Bucket layouts must match;
// mismatched layouts are reported as an error so callers cannot silently
// corrupt a histogram.
func (h *Histogram) Merge(other *Histogram) error {
	if h == nil || other == nil {
		return nil
	}
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("obs: merge of mismatched histograms (%d vs %d buckets)", len(h.bounds), len(other.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("obs: merge of mismatched histograms (bound %d: %v vs %v)", i, h.bounds[i], other.bounds[i])
		}
	}
	for i := range other.counts {
		h.counts[i].Add(other.counts[i].Load())
	}
	h.inf.Add(other.inf.Load())
	h.sumNS.Add(other.sumNS.Load())
	h.n.Add(other.n.Load())
	return nil
}

// Registry holds the fleet's metrics, keyed by name plus canonical tag
// string. Resolution (Counter/Gauge/Histogram) takes a mutex and is meant
// for setup paths; the returned handles are lock-free and should be kept
// by hot paths. Collectors registered with RegisterCollector run at
// scrape time to pull values from subsystems that keep their own
// counters (transport stats, fault counters).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(*Registry)
	maxSeries  int
	series     map[string]int // distinct tag combinations per metric name
	dropped    *Counter       // MetricDroppedSeries, exempt from the cap
}

// DefaultMaxSeries is the per-metric cardinality cap: at most this many
// distinct tag combinations are materialized per metric name. A
// 1024-camera fleet tags latency histograms {edge, camera, protocol}, so
// the cap has to clear a few thousand legitimate series while still
// stopping an unbounded tag (frame index, trace ID) from eating the heap.
const DefaultMaxSeries = 4096

// NewRegistry returns an empty registry with the default cardinality cap.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		maxSeries: DefaultMaxSeries,
		series:    make(map[string]int),
	}
}

// admit enforces the cardinality cap for a new series of metric name.
// Callers hold r.mu. When the metric is at its cap the drop is counted in
// MetricDroppedSeries and admit reports false — the caller returns a nil
// handle, whose methods are no-ops, instead of growing unbounded.
func (r *Registry) admit(name string) bool {
	if name == MetricDroppedSeries {
		return true
	}
	if r.series[name] >= r.maxSeries {
		if r.dropped == nil {
			r.dropped = &Counter{}
			r.counters[MetricDroppedSeries] = r.dropped
		}
		r.dropped.Add(1)
		return false
	}
	r.series[name]++
	return true
}

func key(name, tags string) string {
	if tags == "" {
		return name
	}
	return name + "{" + tags + "}"
}

// Counter returns (creating if needed) the counter for name+tags.
// Nil-safe: a nil registry returns a nil, no-op counter.
func (r *Registry) Counter(name, tags string) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, tags)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		if !r.admit(name) {
			return nil
		}
		c = &Counter{}
		r.counters[k] = c
		if name == MetricDroppedSeries && tags == "" {
			r.dropped = c
		}
	}
	return c
}

// Gauge returns (creating if needed) the gauge for name+tags. Nil-safe.
func (r *Registry) Gauge(name, tags string) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, tags)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		if !r.admit(name) {
			return nil
		}
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the default-bucket latency
// histogram for name+tags. Nil-safe.
func (r *Registry) Histogram(name, tags string) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, tags)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		if !r.admit(name) {
			return nil
		}
		h = NewHistogram(nil)
		r.hists[k] = h
	}
	return h
}

// RegisterCollector adds a pull hook invoked (in registration order) at
// the start of every scrape, letting subsystems that keep their own
// counters publish current values without per-operation mirroring.
func (r *Registry) RegisterCollector(fn func(*Registry)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

func (r *Registry) runCollectors() {
	r.mu.Lock()
	fns := make([]func(*Registry), len(r.collectors))
	copy(fns, r.collectors)
	r.mu.Unlock()
	for _, fn := range fns {
		fn(r)
	}
}

// promLabels renders the canonical tag string as a Prometheus label set,
// optionally appending an le label (histogram buckets).
func promLabels(tags, le string) string {
	if tags == "" && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	if tags != "" {
		for _, pair := range strings.Split(tags, ",") {
			k, v, _ := strings.Cut(pair, "=")
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(k)
			b.WriteString(`="`)
			b.WriteString(v)
			b.WriteString(`"`)
		}
	}
	if le != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func splitKey(k string) (name, tags string) {
	if i := strings.IndexByte(k, '{'); i >= 0 {
		return k[:i], strings.TrimSuffix(k[i+1:], "}")
	}
	return k, ""
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PrometheusText runs the registered collectors and renders the whole
// registry in the Prometheus text exposition format. Output is sorted by
// metric name and label set, so two scrapes of identical state are
// byte-identical.
func (r *Registry) PrometheusText() string {
	if r == nil {
		return ""
	}
	r.runCollectors()

	type family struct {
		typ   string
		lines []string
	}
	fams := make(map[string]*family)
	fam := func(name, typ string) *family {
		f, ok := fams[name]
		if !ok {
			f = &family{typ: typ}
			fams[name] = f
		}
		return f
	}

	r.mu.Lock()
	for k, c := range r.counters {
		name, tags := splitKey(k)
		f := fam(name, "counter")
		f.lines = append(f.lines, name+promLabels(tags, "")+" "+strconv.FormatInt(c.Value(), 10))
	}
	for k, g := range r.gauges {
		name, tags := splitKey(k)
		f := fam(name, "gauge")
		f.lines = append(f.lines, name+promLabels(tags, "")+" "+strconv.FormatInt(g.Value(), 10))
	}
	for k, h := range r.hists {
		name, tags := splitKey(k)
		f := fam(name, "histogram")
		cum := h.Buckets()
		for i, b := range h.bounds {
			f.lines = append(f.lines, name+"_bucket"+promLabels(tags, formatFloat(b))+" "+strconv.FormatInt(cum[i], 10))
		}
		f.lines = append(f.lines, name+"_bucket"+promLabels(tags, "+Inf")+" "+strconv.FormatInt(cum[len(cum)-1], 10))
		f.lines = append(f.lines, name+"_sum"+promLabels(tags, "")+" "+formatFloat(h.Sum().Seconds()))
		f.lines = append(f.lines, name+"_count"+promLabels(tags, "")+" "+strconv.FormatInt(h.Count(), 10))
	}
	r.mu.Unlock()

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		b.WriteString("# TYPE " + name + " " + f.typ + "\n")
		sort.Strings(f.lines)
		for _, l := range f.lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Snapshot returns a flat map of every counter and gauge value plus
// histogram counts, keyed by name{tags}. Used by the expvar publication.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.runCollectors()
	out := make(map[string]int64)
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		out[k] = c.Value()
	}
	for k, g := range r.gauges {
		out[k] = g.Value()
	}
	for k, h := range r.hists {
		out[k+"_count"] = h.Count()
		out[k+"_sum_ns"] = int64(h.Sum())
	}
	return out
}

var expvarOnce sync.Once

// PublishExpvar exposes the registry under the "croesus" expvar key.
// Safe to call more than once and from multiple registries — the last
// registry published wins, and the expvar name is only registered once
// (expvar panics on duplicate Publish).
func PublishExpvar(r *Registry) {
	current.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("croesus", expvar.Func(func() any {
			reg, _ := current.Load().(*Registry)
			return reg.Snapshot()
		}))
	})
}

var current atomic.Value // *Registry
