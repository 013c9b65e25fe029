package transport

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"croesus/internal/netsim"
	"croesus/internal/vclock"
)

// Shaper injects a modeled link's latency/bandwidth profile into a real
// path: a token-bucket serializer in modeled (virtual-clock) time. Each
// message pays its transmission time n/Bandwidth on a single serializer —
// messages queue behind each other when they arrive faster than the link
// drains — plus the one-way propagation delay. At low utilization the
// serializer is always free and the delay reduces to exactly
// netsim.Link.TransferTime (propagation + n/bandwidth); under contention
// the shaper also models the queueing that the sim's infinitely-parallel
// links deliberately ignore.
//
// The Shaper is deterministic given a sequence of (now, n) arrivals, which
// is what the unit tests exercise.
type Shaper struct {
	mu          sync.Mutex
	propagation time.Duration
	bandwidth   float64       // bytes per second; 0 means infinite
	nextFree    time.Duration // modeled time the serializer frees up
}

// NewShaper builds a shaper with the given one-way propagation delay and
// bandwidth in bytes per second (0 = infinite).
func NewShaper(propagation time.Duration, bandwidth float64) *Shaper {
	return &Shaper{propagation: propagation, bandwidth: bandwidth}
}

// transmission returns n's serialization time on the link.
func (s *Shaper) transmission(n int) time.Duration {
	if s.bandwidth <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / s.bandwidth * float64(time.Second))
}

// Delay accounts an n-byte message arriving at modeled time now and
// returns the total modeled delay the message experiences: queue wait
// behind earlier messages, its own transmission time, and propagation.
func (s *Shaper) Delay(now time.Duration, n int) time.Duration {
	tx := s.transmission(n)
	s.mu.Lock()
	start := now
	if s.nextFree > start {
		start = s.nextFree
	}
	s.nextFree = start + tx
	s.mu.Unlock()
	return (start - now) + tx + s.propagation
}

// TransferTime returns the uncontended modeled transfer time for n bytes —
// identical to netsim.Link.TransferTime for the same parameters.
func (s *Shaper) TransferTime(n int) time.Duration {
	return s.propagation + s.transmission(n)
}

// ParseLinkSpec parses a "propagation:bandwidth" link spec, e.g.
// "60ms:2500000" (60 ms one-way, 2.5 MB/s). A bandwidth of 0 means
// infinite. The empty string yields a nil shaper (no shaping).
func ParseLinkSpec(spec string) (*Shaper, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("transport: link spec %q: want propagation:bandwidth", spec)
	}
	prop, err := time.ParseDuration(parts[0])
	if err != nil {
		return nil, fmt.Errorf("transport: link spec %q: %v", spec, err)
	}
	bw, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || math.IsNaN(bw) || math.IsInf(bw, 0) {
		return nil, fmt.Errorf("transport: link spec %q: bandwidth %q is not a finite number of bytes/s", spec, parts[1])
	}
	if prop < 0 || bw < 0 {
		return nil, fmt.Errorf("transport: link spec %q: negative parameter", spec)
	}
	return NewShaper(prop, bw), nil
}

// FormatLinkSpec renders a modeled link as a ParseLinkSpec-compatible spec.
func FormatLinkSpec(l *netsim.Link) string {
	return fmt.Sprintf("%s:%g", l.Propagation, l.Bandwidth)
}

// ShapedPath is a Path that costs a Shaper's modeled delay and nothing
// else: the socket deployment's edge uses it for hops whose real bytes its
// own sockets already carried, so a modeled link profile can be injected on
// top. A Send sleeps the modeled delay on the clock; a Charge returns it for
// the caller to sleep (the fan-out contract). It carries its own severed
// flag so an orchestrator can blackhole one path.
type ShapedPath struct {
	shaper *Shaper
	clk    vclock.Clock

	mu       sync.Mutex
	down     bool
	bytes    int64
	messages int64
}

// NewShapedPath builds a path shaped by shaper, reading modeled time from
// clk. A nil shaper costs nothing (still countable and severable).
func NewShapedPath(shaper *Shaper, clk vclock.Clock) *ShapedPath {
	return &ShapedPath{shaper: shaper, clk: clk}
}

// Send implements Path: the modeled delay, slept on clk.
func (p *ShapedPath) Send(clk vclock.Clock, n int) {
	if d := p.Charge(n); d > 0 {
		clk.Sleep(d)
	}
}

// Charge implements Path: it accounts n bytes on the shaper at the current
// modeled time and returns the delay for the caller to sleep. A message
// charged while the path is severed is dropped and costs nothing.
func (p *ShapedPath) Charge(n int) time.Duration {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return 0
	}
	p.bytes += int64(n)
	p.messages++
	p.mu.Unlock()
	if p.shaper == nil {
		return 0
	}
	return p.shaper.Delay(p.clk.Now(), n)
}

// TransferTime implements Path: the uncontended modeled transfer time.
func (p *ShapedPath) TransferTime(n int) time.Duration {
	if p.shaper == nil {
		return 0
	}
	return p.shaper.TransferTime(n)
}

// SetDown implements Path: the orchestrator's per-path blackhole.
func (p *ShapedPath) SetDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// IsDown implements Path.
func (p *ShapedPath) IsDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// Traffic implements Path.
func (p *ShapedPath) Traffic() (int64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes, p.messages
}

var _ Path = (*ShapedPath)(nil)
