// Package vclock provides a clock abstraction with two implementations: a
// real-time clock backed by the time package, and a deterministic
// virtual-time scheduler (Sim) in which sleeping for simulated seconds costs
// microseconds of wall time.
//
// # The baton contract
//
// Sim runs one participant at a time. A participant is a goroutine started
// with Go (or Run). It holds the baton until it blocks — in Sleep, a Gate's
// Wait or a Semaphore's Acquire — or returns, and then hands the baton on:
//
//   - to the head of a FIFO ready list, which Go and Gate.Fire append to, so
//     a participant started with Go first runs when the baton reaches it;
//   - only when that list is empty, to the sleeper with the minimal (at, seq)
//     in the timer heap, moving virtual time to at (seq is the order the
//     sleeps were issued in);
//   - with neither, back to the driver: the run is over or, if participants
//     are still live, deadlocked, and Wait panics with a diagnostic instead
//     of hanging.
//
// A single external driver goroutine (typically a test or main) creates the
// Sim, spawns participants with Go and calls Wait; nothing runs until it
// does. Participants may call any method. The driver may call Go, Run, Wait,
// NewGate and Fire, outside Wait. Any goroutine may call Now, one atomic
// load. A participant must block only through these primitives: one parked
// on a mutex or a channel keeps the baton and stalls the run.
//
// # Determinism contract
//
// Every scheduler field but now is touched only by the baton holder, or by
// the driver outside Wait, and the channel send that passes the baton orders
// those accesses, so there is no lock and no parallelism. The order in which
// participants run — and with it every timestamp, lock queue and batch — is
// a function of the program alone: replay is byte-identical regardless of
// GOMAXPROCS or the race detector. For the same reason no data race between
// participants can show here; races are hunted in wall-clock runs.
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
// contract is what lets the simulated scheduler park the waiter's own wake
// channel on the gate.)
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
	ch  chan struct{} // the sleeper's wake channel
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

// Sim is a deterministic virtual-time scheduler. Construct with NewSim; the
// zero value is not usable.
//
// A participant is named by its wake channel (capacity 1, so the baton can
// be passed to a goroutine that has not parked yet). Every field but now is
// owned by the baton holder, or by the driver outside Wait.
type Sim struct {
	now atomic.Int64 // written by the baton holder, read anywhere

	seq      uint64          // sleeps issued so far: the heap's tiebreak
	live     int             // participants started and not yet returned
	timers   timerHeap       // sleepers
	ready    []chan struct{} // started or woken participants, FIFO from ready[head]
	head     int
	cur      chan struct{} // the baton holder; nil while the driver has it
	done     chan struct{} // the driver parks here inside Wait
	deadlock string
}

// NewSim returns a virtual clock starting at time zero.
func NewSim() *Sim {
	return &Sim{done: make(chan struct{}, 1)}
}

// Now reports the current virtual time. It is a single atomic load, safe
// from any goroutine (trace timestamps, exporters, latency accounting).
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
	me := s.holder()
	s.seq++
	s.timers.push(timerEvent{at: s.now.Load() + int64(d), seq: s.seq, ch: me})
	s.dispatch()
	<-me
}

// NewGate returns a Gate tied to this scheduler.
func (s *Sim) NewGate() Gate {
	return &simGate{s: s}
}

// Go starts fn as a participant; it first runs when the baton reaches it.
// It may be called by the driver before or between Waits, or by a
// participant at any time.
func (s *Sim) Go(fn func()) {
	s.live++
	wake := make(chan struct{}, 1)
	s.ready = append(s.ready, wake)
	go func() {
		<-wake
		fn()
		s.live--
		s.dispatch()
	}()
}

// Wait hands the baton to the participants and parks the driver until every
// one has returned. It panics if the simulation deadlocks (every
// participant blocked with no pending timer).
func (s *Sim) Wait() {
	if s.deadlock == "" && s.live > 0 {
		s.dispatch()
		<-s.done
	}
	if s.deadlock != "" {
		panic(s.deadlock)
	}
}

// Run is shorthand for Go(fn) followed by Wait.
func (s *Sim) Run(fn func()) {
	s.Go(fn)
	s.Wait()
}

// holder returns the calling participant's wake channel.
func (s *Sim) holder() chan struct{} {
	if s.cur == nil {
		panic("vclock: blocking call outside a participant started with Go")
	}
	return s.cur
}

// dispatch passes the baton on: to the head of the ready list, else to the
// earliest (at, seq) sleeper, moving now to its wake time. With neither, the
// driver gets it back, and a latched deadlock if participants are still
// live.
func (s *Sim) dispatch() {
	var next chan struct{}
	switch {
	case s.head < len(s.ready):
		next = s.ready[s.head]
		s.ready[s.head] = nil
		if s.head++; s.head == len(s.ready) {
			s.ready, s.head = s.ready[:0], 0
		}
	case len(s.timers) > 0:
		ev := s.timers.popMin()
		s.now.Store(ev.at)
		next = ev.ch
	default:
		if s.live > 0 {
			s.deadlock = fmt.Sprintf("vclock: deadlock at t=%v — all %d live goroutines blocked with no pending timer", s.Now(), s.live)
		}
		s.cur = nil
		s.done <- struct{}{}
		return
	}
	s.cur = next
	next <- struct{}{}
}

type simGate struct {
	s      *Sim
	fired  bool
	waiter chan struct{} // the parked waiter's wake channel
}

// Wait blocks until the gate fires, letting virtual time advance meanwhile.
// If the gate already fired, Wait returns at once and keeps the baton.
func (g *simGate) Wait() {
	if g.fired {
		return
	}
	me := g.s.holder()
	g.waiter = me
	g.s.dispatch()
	<-me
}

// Fire appends the waiter, if one is parked, to the ready list. Safe to call
// before Wait and more than once.
func (g *simGate) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	if g.waiter != nil {
		g.s.ready = append(g.s.ready, g.waiter)
	}
}
