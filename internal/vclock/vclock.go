// Package vclock provides a clock abstraction with two implementations: a
// real-time clock backed by the time package, and a deterministic
// virtual-time scheduler (Sim) in which sleeping for simulated seconds costs
// microseconds of wall time.
//
// The virtual scheduler is cooperative: every goroutine that participates in
// simulated time must be started with Go (or Run), and may block only
// through scheduler-aware primitives — Sleep, Gate, or Semaphore. A single
// external driver goroutine (typically a test or main) creates the Sim,
// spawns participants with Go, and calls Wait; virtual time advances only
// while the driver is parked in Wait and every participant is blocked. If
// every participant is blocked on a gate with no pending timer, the
// simulation has deadlocked and Wait panics with a diagnostic instead of
// hanging.
//
// # Determinism contract
//
// Pending sleeps sit in one min-heap on (at, seq) behind one mutex, and Now
// is a single atomic load. Virtual time moves only at the all-blocked
// barrier — when every participant is parked — and the next wakeup is always
// the heap's minimal (at, seq) event, where seq is the order the sleeps were
// issued in. Replay is therefore byte-identical regardless of GOMAXPROCS:
// parallelism changes which OS thread runs a participant between barriers,
// never the wake order. One lock is enough: a heap split over eight locks
// measured the same on the repo benchmark (CHANGES.md, PR 17).
package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source used throughout the Croesus code base. Both the
// in-process simulation (Sim) and the real deployment (Real) satisfy it, so
// node logic is written once and runs in either mode.
type Clock interface {
	// Now reports the elapsed time since the clock was created.
	Now() time.Duration
	// Sleep pauses the calling goroutine for d. On Sim, the caller must
	// have been started with Go.
	Sleep(d time.Duration)
	// NewGate returns a one-shot wakeup primitive usable with this clock.
	NewGate() Gate
	// Go starts fn on a new goroutine tracked by the clock.
	Go(fn func())
	// Wait blocks until every goroutine started with Go has returned.
	Wait()
}

// Gate is a one-shot synchronization point: exactly one goroutine Waits and
// some other participating goroutine Fires to release it. Fire may happen
// before Wait, and firing more than once is a no-op. (The single-waiter
// contract is what lets the simulated scheduler keep an exact runnable
// count.)
type Gate interface {
	Wait()
	Fire()
}

// ---------------------------------------------------------------------------
// Real clock

// realClock is the wall-clock implementation; scale compresses modeled
// time (NewReal is the scale-1 instance, so there is exactly one
// wall-clock type to keep correct).
type realClock struct {
	start time.Time
	scale float64
	wg    sync.WaitGroup
}

// NewReal returns a Clock backed by real wall-clock time.
func NewReal() Clock { return NewScaledReal(1) }

// NewScaledReal returns a wall-clock-backed Clock whose modeled time runs
// 1/scale times faster than real time: Sleep(d) sleeps d×scale of wall
// time and Now reports wall-elapsed/scale, so sleeps and timestamps stay
// mutually consistent. A 20-second scenario at scale 0.05 finishes in one
// real second — the knob wall-clock runs use to compress modeled link and
// inference latencies, frame pacing, SLO deadlines, and the event timeline
// uniformly. scale ≤ 0 means 1 (real time).
func NewScaledReal(scale float64) Clock {
	if scale <= 0 {
		scale = 1
	}
	return &realClock{start: time.Now(), scale: scale}
}

func (c *realClock) Now() time.Duration {
	if c.scale == 1 {
		return time.Since(c.start)
	}
	return time.Duration(float64(time.Since(c.start)) / c.scale)
}

func (c *realClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.scale != 1 {
		d = time.Duration(float64(d) * c.scale)
	}
	time.Sleep(d)
}

func (c *realClock) NewGate() Gate {
	return &realGate{ch: make(chan struct{})}
}

func (c *realClock) Go(fn func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		fn()
	}()
}

func (c *realClock) Wait() { c.wg.Wait() }

type realGate struct {
	once sync.Once
	ch   chan struct{}
}

func (g *realGate) Wait() { <-g.ch }
func (g *realGate) Fire() { g.once.Do(func() { close(g.ch) }) }

// ---------------------------------------------------------------------------
// Simulated clock

// timerEvent is one pending Sleep wakeup. Events live by value inside the
// heap slice, so pushing a timer allocates nothing.
type timerEvent struct {
	at  int64         // virtual wake time, ns
	seq uint64        // global tiebreak so equal-time events fire in creation order
	ch  chan struct{} // pooled wake channel, capacity 1
}

// timerHeap is the timer queue: a min-heap on (at, seq).
type timerHeap []timerEvent

func (s *timerHeap) push(ev timerEvent) {
	h := append(*s, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at < h[i].at || (h[p].at == h[i].at && h[p].seq < h[i].seq) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*s = h
}

func (s *timerHeap) popMin() timerEvent {
	h := *s
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = timerEvent{}
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && (h[l].at < h[m].at || (h[l].at == h[m].at && h[l].seq < h[m].seq)) {
			m = l
		}
		if r < n && (h[r].at < h[m].at || (h[r].at == h[m].at && h[r].seq < h[m].seq)) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*s = h
	return min
}

// wakePool recycles the capacity-1 channels Sleep parks on: exactly one
// send per Sleep, so a drained channel is safe to reuse and the steady-state
// Sleep path allocates nothing.
var wakePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// Sim is a deterministic virtual-time scheduler. Construct with NewSim; the
// zero value is not usable.
//
// Invariant: runnable counts every goroutine that may be executing
// scheduler-visible code (participants not parked in a primitive, plus the
// driver's hold). Virtual time advances only on the transition to
// runnable == 0, at which point the transitioning goroutine is the only one
// active — advance therefore runs exclusively, and Now is written only there
// (read anywhere via atomic load).
type Sim struct {
	now      atomic.Int64
	runnable atomic.Int64
	live     atomic.Int64
	seq      atomic.Uint64

	timerMu sync.Mutex
	timers  timerHeap

	stateMu  sync.Mutex // guards deadlock + waiters
	deadlock string
	waiters  []chan struct{}
}

// NewSim returns a virtual clock starting at time zero. The driver holds an
// implicit runnable slot so that time cannot advance while it is still
// spawning participants; the slot is released for the duration of Wait.
func NewSim() *Sim {
	s := &Sim{}
	s.runnable.Store(1)
	return s
}

// Now reports the current virtual time. It is a single atomic load — safe
// to call at arbitrary rates (trace timestamps, latency accounting) without
// touching any scheduler lock.
func (s *Sim) Now() time.Duration {
	return time.Duration(s.now.Load())
}

// Sleep blocks the calling goroutine for d of virtual time. The caller must
// be a participant started with Go. Non-positive durations return
// immediately.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := wakePool.Get().(chan struct{})
	ev := timerEvent{at: s.now.Load() + int64(d), seq: s.seq.Add(1), ch: ch}
	s.timerMu.Lock()
	s.timers.push(ev)
	s.timerMu.Unlock()
	s.block()
	<-ch
	wakePool.Put(ch)
}

// NewGate returns a Gate tied to this scheduler. Waiting counts the caller
// as blocked (allowing time to advance); firing makes it runnable again.
func (s *Sim) NewGate() Gate {
	return &simGate{s: s, ch: make(chan struct{})}
}

// Go starts fn as a participating goroutine. It may be called by the driver
// before or between Waits, or by a participant at any time.
func (s *Sim) Go(fn func()) {
	s.live.Add(1)
	s.runnable.Add(1)
	go func() {
		defer s.finish()
		fn()
	}()
}

// Wait parks the driver until every participant has returned, releasing the
// driver's hold so virtual time can advance. It panics if the simulation
// deadlocks (every participant blocked with no pending timer).
func (s *Sim) Wait() {
	s.stateMu.Lock()
	if s.deadlock != "" {
		msg := s.deadlock
		s.stateMu.Unlock()
		panic(msg)
	}
	if s.live.Load() == 0 {
		s.stateMu.Unlock()
		return
	}
	// Register for completion first: releasing the hold below can itself
	// detect a deadlock, and that notification must reach this waiter.
	ch := make(chan struct{})
	s.waiters = append(s.waiters, ch)
	s.stateMu.Unlock()
	s.block()
	<-ch

	s.stateMu.Lock()
	msg := s.deadlock
	s.stateMu.Unlock()
	if msg != "" {
		panic(msg)
	}
	s.runnable.Add(1) // re-acquire the driver's hold for the next phase
}

// Run is shorthand for Go(fn) followed by Wait.
func (s *Sim) Run(fn func()) {
	s.Go(fn)
	s.Wait()
}

func (s *Sim) finish() {
	l := s.live.Add(-1)
	n := s.runnable.Add(-1)
	if n < 0 {
		panic("vclock: runnable count underflow")
	}
	if l == 0 {
		s.notify()
		return
	}
	if n == 0 {
		s.advance()
	}
}

// block marks the caller as blocked and, if it was the last runnable
// goroutine, advances virtual time.
func (s *Sim) block() {
	n := s.runnable.Add(-1)
	if n < 0 {
		panic("vclock: runnable count underflow (blocking goroutine not started with Go?)")
	}
	if n == 0 && s.live.Load() > 0 {
		s.advance()
	}
}

// unblock marks one goroutine runnable again (wakeup by a peer).
func (s *Sim) unblock() {
	s.runnable.Add(1)
}

// advance pops the earliest (at, seq) timer event, moves the clock to it, and
// wakes its sleeper. The caller has just transitioned runnable to 0, so it is
// the only goroutine executing — the pop is exclusive by construction (the
// lock is taken anyway; it is uncontended here and keeps the memory-order
// reasoning local). If no timer is pending the simulation is deadlocked: the
// condition is recorded and the driver is notified (its Wait panics).
func (s *Sim) advance() {
	s.timerMu.Lock()
	if len(s.timers) == 0 {
		s.timerMu.Unlock()
		s.stateMu.Lock()
		s.deadlock = fmt.Sprintf("vclock: deadlock at t=%v — all %d live goroutines blocked with no pending timer", time.Duration(s.now.Load()), s.live.Load())
		s.stateMu.Unlock()
		s.notify()
		return
	}
	ev := s.timers.popMin()
	s.timerMu.Unlock()
	if ev.at > s.now.Load() {
		s.now.Store(ev.at)
	}
	s.runnable.Add(1)
	ev.ch <- struct{}{}
}

func (s *Sim) notify() {
	s.stateMu.Lock()
	ws := s.waiters
	s.waiters = nil
	s.stateMu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

type simGate struct {
	s       *Sim
	mu      sync.Mutex
	fired   bool
	waiting bool
	ch      chan struct{}
}

// Wait blocks until the gate fires, letting virtual time advance meanwhile.
// If the gate already fired, Wait returns immediately without touching the
// scheduler's runnable accounting.
func (g *simGate) Wait() {
	g.mu.Lock()
	if g.fired {
		g.mu.Unlock()
		return
	}
	g.waiting = true
	g.mu.Unlock()
	g.s.block()
	<-g.ch
}

// Fire wakes the waiter. Safe to call before Wait and more than once; the
// runnable count is only credited when a waiter actually blocked (or is
// about to block), keeping the scheduler's accounting exact.
func (g *simGate) Fire() {
	g.mu.Lock()
	if g.fired {
		g.mu.Unlock()
		return
	}
	g.fired = true
	waiting := g.waiting
	g.mu.Unlock()
	if waiting {
		g.s.unblock()
	}
	close(g.ch)
}
