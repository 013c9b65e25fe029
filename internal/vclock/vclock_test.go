package vclock

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSimSleepAdvances(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		if s.Now() != 0 {
			t.Errorf("Now() = %v at start, want 0", s.Now())
		}
		s.Sleep(3 * time.Second)
		if s.Now() != 3*time.Second {
			t.Errorf("Now() = %v after sleep, want 3s", s.Now())
		}
		s.Sleep(500 * time.Millisecond)
		if s.Now() != 3500*time.Millisecond {
			t.Errorf("Now() = %v, want 3.5s", s.Now())
		}
	})
}

func TestSimSleepZeroOrNegative(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
		if s.Now() != 0 {
			t.Errorf("Now() = %v, want 0", s.Now())
		}
	})
}

func TestSimVirtualTimeIsFast(t *testing.T) {
	s := NewSim()
	start := time.Now()
	s.Run(func() {
		s.Sleep(10 * time.Hour)
	})
	if wall := time.Since(start); wall > 2*time.Second {
		t.Errorf("simulating 10h took %v of wall time", wall)
	}
	if s.Now() != 10*time.Hour {
		t.Errorf("Now() = %v, want 10h", s.Now())
	}
}

func TestSimWakeOrder(t *testing.T) {
	s := NewSim()
	rng := rand.New(rand.NewSource(42))
	const n = 50
	durs := make([]time.Duration, n)
	for i := range durs {
		durs[i] = time.Duration(rng.Intn(10000)+1) * time.Millisecond
	}
	var mu sync.Mutex
	var order []time.Duration
	for _, d := range durs {
		d := d
		s.Go(func() {
			s.Sleep(d)
			mu.Lock()
			order = append(order, d)
			mu.Unlock()
		})
	}
	s.Wait()
	if len(order) != n {
		t.Fatalf("woke %d sleepers, want %d", len(order), n)
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Errorf("sleepers woke out of duration order: %v", order)
	}
}

func TestSimConcurrentSleepersShareTimeline(t *testing.T) {
	s := NewSim()
	var aDone, bDone time.Duration
	s.Go(func() {
		s.Sleep(2 * time.Second)
		aDone = s.Now()
	})
	s.Go(func() {
		s.Sleep(5 * time.Second)
		bDone = s.Now()
	})
	s.Wait()
	if aDone != 2*time.Second || bDone != 5*time.Second {
		t.Errorf("aDone=%v bDone=%v, want 2s and 5s", aDone, bDone)
	}
}

func TestSimGateFireBeforeWait(t *testing.T) {
	s := NewSim()
	g := s.NewGate()
	s.Go(func() {
		g.Fire()
	})
	s.Go(func() {
		s.Sleep(time.Second) // let the firer go first
		g.Wait()
	})
	s.Wait()
}

func TestSimGateWaitThenFire(t *testing.T) {
	s := NewSim()
	g := s.NewGate()
	var wokenAt time.Duration
	s.Go(func() {
		g.Wait()
		wokenAt = s.Now()
	})
	s.Go(func() {
		s.Sleep(7 * time.Second)
		g.Fire()
	})
	s.Wait()
	if wokenAt != 7*time.Second {
		t.Errorf("waiter woke at %v, want 7s", wokenAt)
	}
}

func TestSimGateDoubleFire(t *testing.T) {
	s := NewSim()
	g := s.NewGate()
	s.Go(func() { g.Wait() })
	s.Go(func() {
		g.Fire()
		g.Fire() // must be a harmless no-op
	})
	s.Wait()
}

// TestSimReadyListIsFIFO: participants first run in Go order, gate waiters
// resume in the order their gates fired, and sleepers due at one instant
// wake in the order they went to sleep — never in OS-thread arrival order.
// The slices need no lock: only the baton holder runs.
func TestSimReadyListIsFIFO(t *testing.T) {
	const n = 8
	inOrder := func(got []int, want func(i int) int) bool {
		for i, v := range got {
			if v != want(i) {
				return false
			}
		}
		return len(got) == n
	}

	s := NewSim()
	var started []int
	for i := 0; i < n/2; i++ {
		i := i
		s.Go(func() { started = append(started, i) })
	}
	s.Go(func() {
		// Started by a participant: queued behind the driver's four.
		for i := n / 2; i < n; i++ {
			i := i
			s.Go(func() { started = append(started, i) })
		}
	})
	s.Wait()
	if !inOrder(started, func(i int) int { return i }) {
		t.Errorf("participants ran in order %v, want Go order", started)
	}

	s = NewSim()
	gates := make([]Gate, n)
	var resumed []int
	for i := range gates {
		i := i
		gates[i] = s.NewGate()
		s.Go(func() {
			gates[i].Wait()
			resumed = append(resumed, i)
		})
	}
	s.Go(func() {
		s.Sleep(time.Millisecond)     // every waiter has parked by now
		for i := n - 1; i >= 0; i-- { // fire back to front
			gates[i].Fire()
		}
	})
	s.Wait()
	if !inOrder(resumed, func(i int) int { return n - 1 - i }) {
		t.Errorf("waiters resumed in order %v, want firing order", resumed)
	}

	s = NewSim()
	var woke []int
	for i := 0; i < n; i++ {
		i := i
		s.Go(func() {
			// Participant i issues its sleep to t=1s at t=(n-i) ms, so the
			// last started goes to sleep first.
			s.Sleep(time.Duration(n-i) * time.Millisecond)
			s.Sleep(time.Second - s.Now())
			woke = append(woke, i)
		})
	}
	s.Wait()
	if !inOrder(woke, func(i int) int { return n - 1 - i }) {
		t.Errorf("same-instant sleepers woke in order %v, want issue order", woke)
	}
	if s.Now() != time.Second {
		t.Errorf("Now() = %v, want 1s", s.Now())
	}
}

func TestSimDeadlockPanics(t *testing.T) {
	s := NewSim()
	g := s.NewGate()
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic from Wait, got clean exit")
		}
	}()
	s.Run(func() {
		g.Wait() // nobody will ever fire
	})
}

func TestSimDeadlockDetectedBeforeWait(t *testing.T) {
	// Two participants block on gates nobody fires; once both have parked
	// the deadlock is latched and Wait reports it.
	s := NewSim()
	s.Go(func() { s.NewGate().Wait() })
	s.Go(func() { s.NewGate().Wait() })
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	s.Wait()
}

// A participant's panic ends the run: it surfaces from Wait on the driver's
// goroutine with its own value, and the Sim stays usable afterwards.
func TestSimParticipantPanicSurfacesFromWait(t *testing.T) {
	type boom struct{ at time.Duration }
	s := NewSim()
	s.Go(func() { s.Sleep(time.Hour) }) // still parked when the panic lands
	s.Go(func() {
		s.Sleep(time.Second)
		panic(boom{s.Now()})
	})
	func() {
		defer func() {
			if r := recover(); r != (boom{time.Second}) {
				t.Errorf("Wait panicked with %#v, want boom{1s}", r)
			}
		}()
		s.Wait()
		t.Error("Wait returned normally after a participant panicked")
	}()
	s.Wait() // the surviving sleeper finishes
	if s.Now() != time.Hour {
		t.Errorf("Now() = %v after the second Wait, want 1h", s.Now())
	}
}

// Wait is the driver's loop; a participant calling it gets a clear panic
// rather than a nested driver loop.
func TestSimWaitFromParticipantPanics(t *testing.T) {
	s := NewSim()
	var got any
	s.Run(func() {
		defer func() { got = recover() }()
		s.Wait()
	})
	if msg, _ := got.(string); !strings.Contains(msg, "only the driver") {
		t.Errorf("Wait inside a participant panicked with %#v, want the driver-only message", got)
	}
}

// A steady-state Sleep handoff — push the timer, yield to Wait, pop the
// next sleeper, resume it — allocates nothing, and neither does a Go that
// reuses a finished participant's coroutine.
func TestSimSleepHandoffAllocatesNothing(t *testing.T) {
	s := NewSim()
	done := false
	for g := 1; g <= 15; g++ {
		s.Go(func() {
			for !done {
				s.Sleep(time.Duration(g) * time.Millisecond)
			}
		})
	}
	var sleep, spawn float64
	child := func() {}
	s.Go(func() {
		sleep = testing.AllocsPerRun(1000, func() { s.Sleep(time.Millisecond) })
		// A participant that returned leaves its coroutine idle for the
		// next Go to reuse.
		spawn = testing.AllocsPerRun(1000, func() {
			s.Go(child)
			s.Sleep(time.Millisecond)
		})
		done = true
	})
	s.Wait()
	if sleep != 0 || spawn != 0 {
		t.Errorf("a Sleep handoff allocates %v times and a Go from a participant %v, want 0 and 0", sleep, spawn)
	}
}

// Wait stops the idle coroutines when the run is over, so a finished Sim
// leaves no goroutine behind. (The count may drop, if a goroutine of an
// earlier test is still exiting, but must not grow.)
func TestSimLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSim()
	for i := 0; i < 32; i++ {
		s.Go(func() {
			s.Go(func() { s.Sleep(time.Second) })
			s.Sleep(time.Millisecond)
		})
	}
	s.Wait()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the run, %d after", before, after)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	s := NewSim()
	sem := NewSemaphore(s, 2)
	var mu sync.Mutex
	cur, peak := 0, 0
	for i := 0; i < 10; i++ {
		s.Go(func() {
			sem.Acquire()
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			s.Sleep(time.Second)
			mu.Lock()
			cur--
			mu.Unlock()
			sem.Release()
		})
	}
	s.Wait()
	if peak != 2 {
		t.Errorf("peak concurrency = %d, want 2", peak)
	}
	// 10 one-second jobs on 2 slots need 5 seconds.
	if s.Now() != 5*time.Second {
		t.Errorf("elapsed = %v, want 5s", s.Now())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	s := NewSim()
	sem := NewSemaphore(s, 1)
	s.Run(func() {
		if !sem.TryAcquire() {
			t.Error("first TryAcquire failed")
		}
		if sem.TryAcquire() {
			t.Error("second TryAcquire succeeded on a full semaphore")
		}
		sem.Release()
		if !sem.TryAcquire() {
			t.Error("TryAcquire after Release failed")
		}
		sem.Release()
	})
}

func TestSemaphoreFIFO(t *testing.T) {
	s := NewSim()
	sem := NewSemaphore(s, 1)
	var mu sync.Mutex
	var order []int
	s.Go(func() {
		sem.Acquire()
		s.Sleep(10 * time.Second)
		sem.Release()
	})
	for i := 0; i < 5; i++ {
		i := i
		s.Go(func() {
			s.Sleep(time.Duration(i+1) * time.Second) // arrive in index order
			sem.Acquire()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.Sleep(time.Second)
			sem.Release()
		})
	}
	s.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order %v not FIFO", order)
		}
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	c.Sleep(5 * time.Millisecond)
	if c.Now() < 5*time.Millisecond {
		t.Errorf("Now() = %v, want >= 5ms", c.Now())
	}
	g := c.NewGate()
	c.Go(func() { g.Fire() })
	g.Wait()
	c.Wait()
}

// Property: for any set of sleep durations, total elapsed virtual time
// equals the maximum duration (parallel sleepers), and each sleeper
// observes exactly its own duration.
func TestSimParallelSleepProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		s := NewSim()
		var max time.Duration
		results := make([]time.Duration, len(raw))
		for i, r := range raw {
			d := time.Duration(r) * time.Millisecond
			if d > max {
				max = d
			}
			i, d := i, d
			s.Go(func() {
				s.Sleep(d)
				results[i] = s.Now()
			})
		}
		s.Wait()
		if s.Now() != max {
			return false
		}
		for i, r := range raw {
			if results[i] != time.Duration(r)*time.Millisecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: sequential sleeps accumulate exactly.
func TestSimSequentialSleepProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		s := NewSim()
		var want time.Duration
		ok := true
		s.Run(func() {
			for _, r := range raw {
				d := time.Duration(r) * time.Microsecond
				want += d
				s.Sleep(d)
				if s.Now() != want {
					ok = false
					return
				}
			}
		})
		return ok && s.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
