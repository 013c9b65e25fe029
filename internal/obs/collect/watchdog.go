package collect

import (
	"fmt"
	"sort"
	"time"

	"croesus/internal/obs"
)

// Incident kinds. Causality kinds (parent_missing, child_before_parent,
// span_leak) indicate a broken trace — croesus trace -check treats them
// as hard failures; SLO kinds report service degradation.
const (
	IncidentParentMissing     = "parent_missing"
	IncidentChildBeforeParent = "child_before_parent"
	IncidentSpanLeak          = "span_leak"
	IncidentQueueStuck        = "queue_stuck"
	IncidentSLOMissRate       = "slo_miss_rate"
	IncidentShedBudget        = "shed_budget"
)

// CausalityKinds lists the incident kinds that indicate a structurally
// broken trace rather than degraded service.
var CausalityKinds = map[string]bool{
	IncidentParentMissing:     true,
	IncidentChildBeforeParent: true,
	IncidentSpanLeak:          true,
}

// Incident is one structured watchdog event.
type Incident struct {
	Kind   string        `json:"kind"`
	Proc   string        `json:"proc,omitempty"`
	Trace  uint64        `json:"trace,omitempty"`
	Span   uint64        `json:"span,omitempty"`
	At     time.Duration `json:"at"`
	Detail string        `json:"detail"`
}

// String renders the incident as one log line.
func (i Incident) String() string {
	s := i.Kind
	if i.Proc != "" {
		s += " proc=" + i.Proc
	}
	if i.Span != 0 {
		s += fmt.Sprintf(" span=%d", i.Span)
	}
	return fmt.Sprintf("%s at=%s: %s", s, i.At, i.Detail)
}

// WatchdogConfig configures the streaming watchdog.
type WatchdogConfig struct {
	// SLO is the per-frame deadline judged against each trace's root
	// span (client.frame, else frame.root). Zero disables SLO windows.
	SLO time.Duration
	// Window is the number of root spans per compliance window
	// (default 32).
	Window int
	// MaxMissRate is the tolerated fraction of deadline misses per
	// window (default 0.1); MaxShedRate the tolerated fraction of shed
	// validations per window (default 0.25).
	MaxMissRate float64
	MaxShedRate float64
	// Tolerance is the causality slack for child-before-parent (default
	// DefaultTolerance). Feed aligned spans — raw per-process clocks
	// make the check meaningless.
	Tolerance time.Duration
}

// queueStuckLen flags a queue as stuck after this many consecutive
// queue-wait spans with non-decreasing duration, the last at least
// queueStuckMin long.
const (
	queueStuckLen = 8
	queueStuckMin = 10 * time.Millisecond
)

// Watchdog consumes a span stream (aligned, in any order) and maintains
// standing invariants and per-window SLO compliance. Feed spans as they
// arrive; Finish flushes end-of-stream checks (unresolved parents, open
// windows, leaked traces) and returns the full incident list.
type Watchdog struct {
	cfg WatchdogConfig

	seen      map[uint64]obs.Span   // span ID → span
	orphans   map[uint64][]obs.Span // parent ID → children waiting for it
	rooted    map[uint64]bool       // trace → has a root span (Parent == 0)
	traceLast map[uint64]obs.Span   // trace → latest span observed (for leak reporting)

	queueRun   int
	queueLast  time.Duration
	queueProc  string
	queueStuck bool

	windowRoots int
	windowMiss  int
	windowShed  int
	windowEnd   time.Duration

	incidents []Incident
}

// NewWatchdog builds a watchdog; zero-value config fields take defaults.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.MaxMissRate <= 0 {
		cfg.MaxMissRate = 0.1
	}
	if cfg.MaxShedRate <= 0 {
		cfg.MaxShedRate = 0.25
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = DefaultTolerance
	}
	return &Watchdog{
		cfg:       cfg,
		seen:      make(map[uint64]obs.Span),
		orphans:   make(map[uint64][]obs.Span),
		rooted:    make(map[uint64]bool),
		traceLast: make(map[uint64]obs.Span),
	}
}

func (w *Watchdog) report(in Incident) {
	w.incidents = append(w.incidents, in)
}

// Feed consumes one span. Order-independent for the causality checks;
// SLO windows and queue-run detection assume roughly time-ordered input
// (feed a merged, sorted stream for exact window accounting).
func (w *Watchdog) Feed(s obs.Span) {
	if s.Trace != 0 {
		if s.Parent == 0 {
			w.rooted[s.Trace] = true
		}
		if last, ok := w.traceLast[s.Trace]; !ok || s.End > last.End {
			w.traceLast[s.Trace] = s
		}
	}
	if s.ID != 0 {
		w.seen[s.ID] = s
		for _, child := range w.orphans[s.ID] {
			w.checkOrder(child, s)
		}
		delete(w.orphans, s.ID)
	}
	if s.Parent != 0 {
		if parent, ok := w.seen[s.Parent]; ok {
			w.checkOrder(s, parent)
		} else {
			w.orphans[s.Parent] = append(w.orphans[s.Parent], s)
		}
	}
	w.feedQueue(s)
	w.feedSLO(s)
}

// checkOrder verifies a child does not start before its parent (minus
// tolerance) once both sides are known.
func (w *Watchdog) checkOrder(child, parent obs.Span) {
	if child.Start+w.cfg.Tolerance < parent.Start {
		w.report(Incident{
			Kind: IncidentChildBeforeParent, Proc: child.Proc,
			Trace: child.Trace, Span: child.ID, At: child.Start,
			Detail: fmt.Sprintf("%s starts %v before parent %s (after alignment)", child.Name, parent.Start-child.Start, parent.Name),
		})
	}
}

// feedQueue tracks consecutive queue-wait spans whose waits never shrink.
func (w *Watchdog) feedQueue(s obs.Span) {
	if s.Name != obs.SpanBatchQueue && s.Name != obs.SpanPoolWait {
		return
	}
	dur := s.End - s.Start
	if w.queueRun > 0 && dur >= w.queueLast {
		w.queueRun++
	} else {
		w.queueRun = 1
		w.queueStuck = false
	}
	w.queueLast = dur
	w.queueProc = s.Proc
	if !w.queueStuck && w.queueRun >= queueStuckLen && dur >= queueStuckMin {
		w.queueStuck = true // report once per run
		w.report(Incident{
			Kind: IncidentQueueStuck, Proc: s.Proc, Trace: s.Trace, At: s.End,
			Detail: fmt.Sprintf("%d consecutive non-decreasing queue waits, latest %v", w.queueRun, dur),
		})
	}
}

// feedSLO maintains the per-window deadline and shed-budget compliance.
func (w *Watchdog) feedSLO(s obs.Span) {
	if w.cfg.SLO <= 0 {
		return
	}
	switch s.Name {
	case obs.SpanBatchShed:
		w.windowShed++
	case obs.SpanClientFrame, obs.SpanFrameRoot:
		// When a client traced the frame both roots exist; count only
		// the outermost to keep the window denominator one-per-frame.
		if s.Name == obs.SpanFrameRoot && s.Parent != 0 {
			return
		}
		w.windowRoots++
		if s.End-s.Start > w.cfg.SLO {
			w.windowMiss++
		}
		if s.End > w.windowEnd {
			w.windowEnd = s.End
		}
		if w.windowRoots >= w.cfg.Window {
			w.flushWindow()
		}
	}
}

func (w *Watchdog) flushWindow() {
	if w.windowRoots == 0 {
		return
	}
	miss := float64(w.windowMiss) / float64(w.windowRoots)
	shed := float64(w.windowShed) / float64(w.windowRoots)
	if miss > w.cfg.MaxMissRate {
		w.report(Incident{
			Kind: IncidentSLOMissRate, At: w.windowEnd,
			Detail: fmt.Sprintf("deadline hit-rate %.0f%% < required %.0f%% (%d/%d misses over window)", (1-miss)*100, (1-w.cfg.MaxMissRate)*100, w.windowMiss, w.windowRoots),
		})
	}
	if shed > w.cfg.MaxShedRate {
		w.report(Incident{
			Kind: IncidentShedBudget, At: w.windowEnd,
			Detail: fmt.Sprintf("shed rate %.0f%% exceeds budget %.0f%% (%d sheds over %d frames)", shed*100, w.cfg.MaxShedRate*100, w.windowShed, w.windowRoots),
		})
	}
	w.windowRoots, w.windowMiss, w.windowShed = 0, 0, 0
}

// Finish flushes end-of-stream state — unresolved parent references,
// traces that never rooted, the open SLO window — and returns every
// incident, ordered by time then kind.
func (w *Watchdog) Finish() []Incident {
	for parentID, children := range w.orphans {
		for _, c := range children {
			w.report(Incident{
				Kind: IncidentParentMissing, Proc: c.Proc,
				Trace: c.Trace, Span: c.ID, At: c.Start,
				Detail: fmt.Sprintf("%s references parent span %d, never observed", c.Name, parentID),
			})
		}
	}
	for trace, last := range w.traceLast {
		if w.rooted[trace] {
			continue
		}
		w.report(Incident{
			Kind: IncidentSpanLeak, Proc: last.Proc, Trace: trace, At: last.End,
			Detail: fmt.Sprintf("trace has %s spans but no root — emitter shut down mid-frame", last.Name),
		})
	}
	w.flushWindow()
	sort.SliceStable(w.incidents, func(i, j int) bool {
		a, b := w.incidents[i], w.incidents[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		return a.Detail < b.Detail
	})
	return w.incidents
}

// Incidents returns the incidents reported so far (without the Finish
// flush).
func (w *Watchdog) Incidents() []Incident { return w.incidents }
