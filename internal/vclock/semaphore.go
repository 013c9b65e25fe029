package vclock

import "sync"

// Semaphore is a counted resource with FIFO granting, usable under both the
// real and the simulated clock. It models limited compute slots (e.g., one
// detector on an edge machine, several on a cloud machine).
type Semaphore struct {
	clk Clock

	mu       sync.Mutex
	capacity int
	inUse    int
	queue    []Gate
}

// NewSemaphore returns a semaphore with the given capacity (> 0).
func NewSemaphore(clk Clock, capacity int) *Semaphore {
	if capacity <= 0 {
		panic("vclock: semaphore capacity must be positive")
	}
	return &Semaphore{clk: clk, capacity: capacity}
}

// Acquire takes one slot, blocking (in clock time) until one is available.
func (s *Semaphore) Acquire() {
	s.mu.Lock()
	if s.inUse < s.capacity && len(s.queue) == 0 {
		s.inUse++
		s.mu.Unlock()
		return
	}
	g := s.clk.NewGate()
	s.queue = append(s.queue, g)
	s.mu.Unlock()
	g.Wait()
}

// TryAcquire takes a slot without blocking; it reports whether it succeeded.
func (s *Semaphore) TryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inUse < s.capacity && len(s.queue) == 0 {
		s.inUse++
		return true
	}
	return false
}

// Release returns one slot, handing it to the oldest waiter if any.
func (s *Semaphore) Release() {
	s.mu.Lock()
	if s.inUse <= 0 {
		s.mu.Unlock()
		panic("vclock: semaphore released more than acquired")
	}
	if len(s.queue) > 0 {
		g := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		g.Fire() // slot hand-off: inUse stays constant
		return
	}
	s.inUse--
	s.mu.Unlock()
}
