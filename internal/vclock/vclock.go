// Package vclock provides a clock abstraction with two implementations: a
// real-time clock backed by the time package, and a deterministic
// virtual-time scheduler (Sim) in which sleeping for simulated seconds costs
// microseconds of wall time.
//
// # The baton contract
//
// Sim runs one participant at a time. A participant is an iter.Pull
// coroutine started with Go (or Run), and Wait is the loop that resumes
// them. One holds the baton until it blocks — in Sleep, a Gate's Wait or a
// Semaphore's Acquire — or returns, and then yields back to Wait, which
// resumes:
//
//   - the head of a FIFO ready list, which Go and Gate.Fire append to, so
//     a participant started with Go first runs when the baton reaches it;
//   - only when that list is empty, the sleeper with the minimal (at, seq)
//     in the timer heap, moving virtual time to at (seq is the order the
//     sleeps were issued in);
//   - with neither, no one: the run is over or, if participants are still
//     live, deadlocked, and Wait panics with a diagnostic.
//
// A single driver goroutine (typically a test or main) creates the Sim,
// spawns participants with Go and calls Wait; nothing runs until it does.
// Participants may call any method but Wait. Any goroutine may call Now,
// one atomic load. A participant must block only through these primitives:
// one parked on a mutex or a channel never yields and stalls the run. A
// participant's panic ends the run and surfaces from Wait, with its value,
// on the driver's goroutine.
//
// # Determinism contract
//
// Every scheduler field but now is touched only by the baton holder or the
// driver, and the coroutine switch between them orders those accesses: no
// lock, no parallelism. The order participants run in — and with it every
// timestamp, lock queue and batch — is a function of the program alone, so
// replay is byte-identical at any GOMAXPROCS or under the race detector,
// and no data race between participants can show; races are hunted in
// wall-clock runs.
package vclock

import (
	"fmt"
	"iter"
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
// before Wait, and firing more than once is a no-op. (The single waiter is
// what lets the simulated scheduler park it on the gate itself.)
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

func (c *realClock) NewGate() Gate { return &realGate{ch: make(chan struct{})} }

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
	at  int64        // virtual wake time, ns
	seq uint64       // global tiebreak so equal-time events fire in creation order
	p   *participant // the sleeper
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

// Sim is a deterministic virtual-time scheduler. Construct with NewSim.
type Sim struct {
	now    atomic.Int64   // written by the driver, read anywhere
	seq    uint64         // sleeps issued so far: the heap's tiebreak
	live   int            // participants started and not yet returned
	timers timerHeap      // sleepers
	ready  []*participant // started or woken participants, FIFO from ready[head]
	head   int
	cur    *participant   // the baton holder; nil while the driver has it
	idle   []*participant // coroutines whose fn returned, for Go to reuse
}

// participant is one coroutine: next resumes it until it yields, reporting
// whether fn returned (true) or blocked. After fn returns it idles until Go
// hands it a new fn or Wait, at the end of the run, stops it.
type participant struct {
	fn    func()
	next  func() (bool, bool)
	yield func(bool) bool
	stop  func()
}

// NewSim returns a virtual clock starting at time zero.
func NewSim() *Sim { return &Sim{} }

// Now reports the current virtual time. It is a single atomic load, safe
// from any goroutine (trace timestamps, exporters, latency accounting).
func (s *Sim) Now() time.Duration { return time.Duration(s.now.Load()) }

// Sleep blocks the calling participant for d of virtual time. Non-positive
// durations return immediately.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	me := s.holder()
	s.seq++
	s.timers.push(timerEvent{at: s.now.Load() + int64(d), seq: s.seq, p: me})
	me.yield(false)
}

// NewGate returns a Gate tied to this scheduler.
func (s *Sim) NewGate() Gate { return &simGate{s: s} }

// Go starts fn as a participant; it first runs when the baton reaches it.
// The driver may call it before or between Waits, a participant any time.
func (s *Sim) Go(fn func()) {
	var p *participant
	if n := len(s.idle); n > 0 {
		p, s.idle = s.idle[n-1], s.idle[:n-1]
	} else {
		p = &participant{}
		p.next, p.stop = iter.Pull(func(yield func(bool) bool) {
			for p.yield = yield; ; {
				if p.fn(); !yield(true) {
					return
				}
			}
		})
	}
	p.fn = fn
	s.live++
	s.ready = append(s.ready, p)
}

// Wait resumes participants — the head of the ready list, else the earliest
// (at, seq) sleeper, moving now to its wake time — until every one has
// returned. It panics on deadlock (every participant blocked with no
// pending timer), with a participant's panic, or if called from one.
func (s *Sim) Wait() {
	if s.cur != nil {
		panic("vclock: Wait called from a participant; only the driver may call it")
	}
	defer func() {
		if s.cur != nil { // a participant panicked or called Goexit: it is gone
			s.cur, s.live = nil, s.live-1
		}
	}()
	for {
		var next *participant
		switch {
		case s.head < len(s.ready):
			next = s.ready[s.head]
			if s.head++; s.head == len(s.ready) {
				s.ready, s.head = s.ready[:0], 0
			}
		case len(s.timers) > 0:
			ev := s.timers.popMin()
			s.now.Store(ev.at)
			next = ev.p
		case s.live > 0:
			panic(fmt.Sprintf("vclock: deadlock at t=%v — all %d live goroutines blocked with no pending timer", s.Now(), s.live))
		default:
			for _, p := range s.idle {
				p.stop()
			}
			s.idle = s.idle[:0]
			return
		}
		s.cur = next
		if returned, _ := next.next(); returned {
			s.live--
			s.idle = append(s.idle, next)
		}
		s.cur = nil
	}
}

// Run is shorthand for Go(fn) followed by Wait.
func (s *Sim) Run(fn func()) {
	s.Go(fn)
	s.Wait()
}

// holder returns the calling participant.
func (s *Sim) holder() *participant {
	if s.cur == nil {
		panic("vclock: blocking call outside a participant started with Go")
	}
	return s.cur
}

type simGate struct {
	s      *Sim
	fired  bool
	waiter *participant // the parked waiter
}

// Wait blocks until the gate fires, letting virtual time advance meanwhile.
// If the gate already fired, Wait returns at once and keeps the baton.
func (g *simGate) Wait() {
	if g.fired {
		return
	}
	g.waiter = g.s.holder()
	g.waiter.yield(false)
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
