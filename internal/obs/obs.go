// Package obs is the fleet's observability layer: deterministic
// per-transaction spans, a tagged metrics registry, and the exporters and
// HTTP surfacing that make both visible (JSONL / Chrome trace_event files
// for the simulator, Prometheus-text + expvar + pprof endpoints for the
// TCP deployment).
//
// Instrumentation must never perturb the virtual-time schedule: every
// recording call here takes timestamps the caller already read from its
// vclock.Clock (Now is a plain mutex-guarded read on the simulator) and
// touches only package-local mutexes and atomics. Nothing in this package
// calls Sleep, waits on a Gate, or otherwise interacts with the scheduler,
// so a scenario run with tracing enabled produces byte-identical reports
// to one without.
//
// Every entry point is nil-safe: a nil *Obs, *Tracer, *Registry, *Counter,
// *Gauge, or *Histogram is a no-op, so call sites do not branch on whether
// observability is enabled.
package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one traced interval: a stage of a frame's or transaction's life,
// bounded by two timestamps from the run's Clock. Tags is a pre-rendered,
// canonical "k=v,k=v" string (keys sorted — see Tags) so spans compare and
// sort bytewise.
//
// The identity fields are optional (schema v2). Trace groups every span of
// one frame's end-to-end life, across processes; ID names this span so
// children may reference it; Parent is the causal parent's ID (0 = a trace
// root); Proc names the emitting process, whose clock the timestamps were
// read from. Spans without identity (all four zero-valued) still export
// and merge — they just don't join a tree.
type Span struct {
	Name  string        `json:"name"`
	Tags  string        `json:"tags,omitempty"`
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`

	Trace  uint64 `json:"trace,omitempty"`
	ID     uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Proc   string `json:"proc,omitempty"`
}

// SpanContext is the compact trace context propagated along a frame's
// execution: the trace it belongs to, the enclosing span's ID (children
// emit with Parent = Span), and that span's own parent. The zero value
// means "no context" and every consumer treats it as a no-op.
type SpanContext struct {
	Trace  uint64
	Span   uint64
	Parent uint64
}

// Valid reports whether the context carries a trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashID derives a deterministic non-zero 64-bit identifier from its parts
// (FNV-1a with a separator byte between parts). Trace and span IDs are
// hashed — never drawn from a counter — so the simulator's concurrent
// emitters produce byte-identical traces run over run, and two processes
// of a real deployment never need to coordinate an ID space.
func HashID(parts ...string) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= fnvPrime64
		}
		h ^= 0xff
		h *= fnvPrime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// U64 formats an id for use as a HashID part or a tag value.
func U64(v uint64) string { return strconv.FormatUint(v, 10) }

// Tags renders key/value pairs into the canonical sorted "k=v,k=v" form
// used by both spans and metrics. Arguments are alternating key, value;
// an odd trailing key is ignored.
func Tags(kv ...string) string {
	n := len(kv) / 2
	if n == 0 {
		return ""
	}
	pairs := make([]string, 0, n)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+"="+kv[i+1])
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// DefaultTracerCap bounds the in-memory span ring. A 20-second, 16-camera
// scenario emits a few hundred thousand spans; one million leaves headroom
// while capping memory at tens of MB.
const DefaultTracerCap = 1 << 20

// Tracer collects spans into a bounded in-memory buffer. Spans past the
// cap are dropped and counted — the only way a trace can lose determinism,
// and Dropped exposes it so tests can assert zero.
type Tracer struct {
	mu      sync.Mutex
	spans   []Span
	cap     int
	dropped int64
	proc    string
}

// NewTracerCap returns a Tracer holding at most n spans (n ≤ 0 means the
// default).
func NewTracerCap(n int) *Tracer {
	if n <= 0 {
		n = DefaultTracerCap
	}
	return &Tracer{cap: n}
}

// SetProc names the emitting process; every span recorded after the call
// carries it (unless the span names its own). The simulator leaves this
// unset — a single-process trace needs no process column, and setting it
// would change the exported bytes.
func (t *Tracer) SetProc(proc string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.proc = proc
	t.mu.Unlock()
}

// Emit records one span. Nil-safe; concurrent-safe. Arrival order is racy
// under concurrency — exporters sort before writing, so the trace bytes
// depend only on the span multiset, which the deterministic scheduler
// fixes.
func (t *Tracer) Emit(name, tags string, start, end time.Duration) {
	t.EmitSpan(Span{Name: name, Tags: tags, Start: start, End: end})
}

// EmitCtx records one span as a child of ctx. When ctx is invalid the
// span is recorded untraced, so callers thread contexts unconditionally.
func (t *Tracer) EmitCtx(ctx SpanContext, name, tags string, start, end time.Duration) {
	if !ctx.Valid() {
		t.Emit(name, tags, start, end)
		return
	}
	t.EmitSpan(Span{Name: name, Tags: tags, Start: start, End: end, Trace: ctx.Trace, Parent: ctx.Span})
}

// EmitSpan records one fully-specified span (identity fields included).
// Nil-safe; concurrent-safe. The tracer's process name is stamped on
// spans that don't carry their own.
func (t *Tracer) EmitSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= t.cap {
		t.dropped++
		t.mu.Unlock()
		return
	}
	if s.Proc == "" {
		s.Proc = t.proc
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the collected spans (unsorted).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped reports how many spans were discarded at the capacity limit.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Obs bundles the two halves of the observability layer so one optional
// pointer threads through configs. A nil *Obs disables everything.
type Obs struct {
	Trace *Tracer
	Reg   *Registry
}

// New returns an Obs with a fresh tracer and registry.
func New() *Obs { return &Obs{Trace: &Tracer{cap: DefaultTracerCap}, Reg: NewRegistry()} }

// Span records a span on the bundled tracer. Nil-safe.
func (o *Obs) Span(name, tags string, start, end time.Duration) {
	if o == nil {
		return
	}
	o.Trace.Emit(name, tags, start, end)
}

// EmitSpan records a fully-specified span on the bundled tracer. Nil-safe.
func (o *Obs) EmitSpan(s Span) {
	if o == nil {
		return
	}
	o.Trace.EmitSpan(s)
}

// SpanCtx records a span that belongs to ctx: its trace ID and (as Parent)
// the enclosing span. When ctx is invalid this degrades to Span — the
// uncontextualized PR-6 form — so call sites don't branch. Nil-safe.
func (o *Obs) SpanCtx(ctx SpanContext, name, tags string, start, end time.Duration) {
	if o == nil {
		return
	}
	o.Trace.EmitCtx(ctx, name, tags, start, end)
}

// Tracer returns the bundled tracer (nil when disabled).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Registry returns the bundled registry (nil when disabled).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Counter resolves a counter on the bundled registry. Nil-safe: returns a
// nil *Counter whose methods are no-ops.
func (o *Obs) Counter(name, tags string) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(name, tags)
}

// Gauge resolves a gauge on the bundled registry. Nil-safe.
func (o *Obs) Gauge(name, tags string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Reg.Gauge(name, tags)
}

// Histogram resolves a latency histogram on the bundled registry with the
// default buckets. Nil-safe.
func (o *Obs) Histogram(name, tags string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.Histogram(name, tags)
}
