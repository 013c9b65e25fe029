package lock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"croesus/internal/vclock"
)

func TestSharedCompatibility(t *testing.T) {
	m := NewManager(vclock.NewReal())
	if !m.TryAcquire(1, "k", Shared) {
		t.Fatal("first shared acquire failed")
	}
	if !m.TryAcquire(2, "k", Shared) {
		t.Fatal("second shared acquire failed")
	}
	if m.TryAcquire(3, "k", Exclusive) {
		t.Fatal("exclusive granted over shared holders")
	}
	m.Release(1, "k")
	m.Release(2, "k")
	if !m.TryAcquire(3, "k", Exclusive) {
		t.Fatal("exclusive acquire failed on free lock")
	}
	if m.TryAcquire(4, "k", Shared) {
		t.Fatal("shared granted over exclusive holder")
	}
	m.Release(3, "k")
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := NewManager(vclock.NewReal())
	if !m.TryAcquire(1, "k", Shared) || !m.TryAcquire(1, "k", Shared) {
		t.Fatal("re-entrant shared failed")
	}
	if !m.TryAcquire(1, "k", Exclusive) {
		t.Fatal("sole-holder upgrade failed")
	}
	if m.TryAcquire(2, "k", Shared) {
		t.Fatal("shared granted over upgraded exclusive")
	}
	m.Release(1, "k")

	// Upgrade blocked when another sharer exists.
	m.TryAcquire(1, "k", Shared)
	m.TryAcquire(2, "k", Shared)
	if m.TryAcquire(1, "k", Exclusive) {
		t.Fatal("upgrade granted despite second sharer")
	}
	m.Release(1, "k")
	m.Release(2, "k")
}

func TestBlockingAcquireFIFO(t *testing.T) {
	s := vclock.NewSim()
	m := NewManager(s)
	var mu sync.Mutex
	var order []int
	s.Go(func() {
		m.Acquire(100, "k", Exclusive)
		s.Sleep(10 * time.Second)
		m.Release(100, "k")
	})
	for i := 0; i < 4; i++ {
		i := i
		s.Go(func() {
			s.Sleep(time.Duration(i+1) * time.Second) // arrive in order
			m.Acquire(Owner(i), "k", Exclusive)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.Sleep(time.Second)
			m.Release(Owner(i), "k")
		})
	}
	s.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order %v not FIFO", order)
		}
	}
}

func TestNoBargingPastWaiters(t *testing.T) {
	// A shared TryAcquire must fail while an exclusive waiter is queued,
	// or writers would starve.
	s := vclock.NewSim()
	m := NewManager(s)
	var grabbed bool
	s.Go(func() {
		m.Acquire(1, "k", Shared)
		s.Sleep(5 * time.Second)
		m.Release(1, "k")
	})
	s.Go(func() {
		s.Sleep(time.Second)
		m.Acquire(2, "k", Exclusive) // queues behind owner 1
		m.Release(2, "k")
	})
	s.Go(func() {
		s.Sleep(2 * time.Second)
		grabbed = m.TryAcquire(3, "k", Shared)
		if grabbed {
			m.Release(3, "k")
		}
	})
	s.Wait()
	if grabbed {
		t.Fatal("shared TryAcquire barged past a queued exclusive waiter")
	}
}

func TestTryAcquireAllAtomicity(t *testing.T) {
	m := NewManager(vclock.NewReal())
	m.TryAcquire(9, "b", Exclusive)
	ok := m.TryAcquireAll(1, []Request{{"a", Exclusive}, {"b", Exclusive}, {"c", Exclusive}})
	if ok {
		t.Fatal("TryAcquireAll succeeded despite conflict on b")
	}
	// Nothing may remain held by owner 1: only owner 9's b is locked.
	if n := m.Outstanding(); n != 1 {
		t.Errorf("%d keys locked after failed TryAcquireAll, want 1 (b)", n)
	}
	m.Release(9, "b")
	if !m.TryAcquireAll(1, []Request{{"a", Exclusive}, {"b", Shared}}) {
		t.Fatal("TryAcquireAll failed on free keys")
	}
	m.ReleaseAll(1, []Request{{"a", Exclusive}, {"b", Shared}})
}

func TestNormalize(t *testing.T) {
	got := Normalize([]Request{
		{"b", Shared}, {"a", Exclusive}, {"b", Exclusive}, {"a", Shared}, {"b", Shared},
	})
	want := []Request{{"a", Exclusive}, {"b", Exclusive}}
	if len(got) != len(want) {
		t.Fatalf("Normalize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Normalize = %v, want %v", got, want)
		}
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) != nil")
	}
}

// Property: Normalize output is sorted, duplicate-free, and covers exactly
// the input key set with Exclusive dominating.
func TestNormalizeProperty(t *testing.T) {
	f := func(keys []uint8, modes []bool) bool {
		var reqs []Request
		for i, k := range keys {
			mode := Shared
			if i < len(modes) && modes[i] {
				mode = Exclusive
			}
			reqs = append(reqs, Request{Key: string(rune('a' + k%16)), Mode: mode})
		}
		norm := Normalize(reqs)
		seen := map[string]Mode{}
		prev := ""
		for _, r := range norm {
			if r.Key <= prev && prev != "" {
				return false
			}
			prev = r.Key
			seen[r.Key] = r.Mode
		}
		wantX := map[string]bool{}
		wantAll := map[string]bool{}
		for _, r := range reqs {
			wantAll[r.Key] = true
			if r.Mode == Exclusive {
				wantX[r.Key] = true
			}
		}
		if len(seen) != len(wantAll) {
			return false
		}
		for k := range wantAll {
			mode, ok := seen[k]
			if !ok {
				return false
			}
			if wantX[k] && mode != Exclusive {
				return false
			}
			if !wantX[k] && mode != Shared {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOrderedAcquisitionNoDeadlock(t *testing.T) {
	// Two owners acquiring overlapping sets in opposite declaration order
	// must not deadlock thanks to Normalize. Under the Sim clock a
	// deadlock panics, so plain completion is the assertion.
	s := vclock.NewSim()
	m := NewManager(s)
	for i := 0; i < 20; i++ {
		i := i
		s.Go(func() {
			reqs := []Request{{"x", Exclusive}, {"y", Exclusive}}
			if i%2 == 0 {
				reqs[0], reqs[1] = reqs[1], reqs[0]
			}
			m.AcquireAll(Owner(i), reqs)
			s.Sleep(time.Millisecond)
			m.ReleaseAll(Owner(i), reqs)
		})
	}
	s.Wait()
}

func TestHoldStats(t *testing.T) {
	s := vclock.NewSim()
	m := NewManager(s)
	s.Run(func() {
		m.Acquire(1, "k", Exclusive)
		s.Sleep(100 * time.Millisecond)
		m.Release(1, "k")
		m.Acquire(1, "j", Exclusive)
		s.Sleep(300 * time.Millisecond)
		m.Release(1, "j")
	})
	n, mean := m.HoldStats()
	if n != 2 {
		t.Fatalf("hold count = %d, want 2", n)
	}
	if mean != 200*time.Millisecond {
		t.Fatalf("mean hold = %v, want 200ms", mean)
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	m := NewManager(vclock.NewReal())
	defer func() {
		if recover() == nil {
			t.Error("expected panic on releasing unheld lock")
		}
	}()
	m.Release(1, "nope")
}

func TestConcurrentMutualExclusion(t *testing.T) {
	// Race-detector stress: exclusive locks protect a plain counter.
	m := NewManager(vclock.NewReal())
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(o Owner) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Acquire(o, "ctr", Exclusive)
				counter++
				m.Release(o, "ctr")
			}
		}(Owner(i))
	}
	wg.Wait()
	if counter != 800 {
		t.Fatalf("counter = %d, want 800 (mutual exclusion broken)", counter)
	}
}
