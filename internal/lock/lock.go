// Package lock implements the lock manager used by the multi-stage
// concurrency-control protocols: shared/exclusive key locks with FIFO
// queuing, a no-wait acquisition mode (the abort policy of Two Stage 2PL in
// the paper's Algorithm 1), deadlock-free ordered multi-key acquisition, and
// per-key hold-time accounting for the Figure 6(a) experiment.
//
// Blocking waiters park on vclock gates, so the same manager works under
// both simulated and real time.
//
// The manager sits on the per-frame hot path (every detection transaction
// acquires and releases its whole read/write set), so the bookkeeping is
// allocation-conscious: per-key state uses small slices instead of maps,
// key-lock records are pooled across keys, and promotion fires gates in
// place — Gate.Fire never blocks — rather than collecting them.
package lock

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"croesus/internal/vclock"
)

// Mode is the lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Owner identifies a lock holder (a transaction instance).
type Owner uint64

// Request names one key and the mode it must be locked in.
type Request struct {
	Key  string
	Mode Mode
}

type waiter struct {
	owner Owner
	mode  Mode
	gate  vclock.Gate
}

// holder records one current holder of a key lock; at is when it acquired
// the lock, for hold-time accounting. Holders are kept in a small slice —
// the common case is exactly one — and order is not significant.
type holder struct {
	owner Owner
	mode  Mode
	at    time.Duration
}

type keyLock struct {
	holders []holder
	queue   []waiter
}

// klPool recycles keyLock records (and their holder/queue backing arrays)
// across keys: a detection transaction locks and fully unlocks ~6 keys, so
// without pooling every transaction allocates a fresh record per key.
var klPool = sync.Pool{New: func() any { return new(keyLock) }}

func (kl *keyLock) findHolder(owner Owner) int {
	for i := range kl.holders {
		if kl.holders[i].owner == owner {
			return i
		}
	}
	return -1
}

// Manager is a table of key locks.
type Manager struct {
	clk vclock.Clock

	mu    sync.Mutex
	locks map[string]*keyLock

	holdMu    sync.Mutex
	holdTotal time.Duration
	holdCount int64
	waitTotal time.Duration
	waitCount int64
}

// NewManager returns a lock manager using clk for blocking and accounting.
func NewManager(clk vclock.Clock) *Manager {
	return &Manager{clk: clk, locks: make(map[string]*keyLock)}
}

func (m *Manager) keyLock(key string) *keyLock {
	kl, ok := m.locks[key]
	if !ok {
		kl = klPool.Get().(*keyLock)
		m.locks[key] = kl
	}
	return kl
}

// compatible reports whether owner may take the lock in mode given current
// holders. Re-entrant: a holder may re-take its own lock (upgrades from S to
// X require being the only holder).
func (kl *keyLock) compatible(owner Owner, mode Mode) bool {
	for i := range kl.holders {
		h := &kl.holders[i]
		if h.owner == owner {
			if mode == Exclusive && h.mode == Shared && len(kl.holders) > 1 {
				return false // upgrade blocked by other sharers
			}
			continue
		}
		if mode == Exclusive || h.mode == Exclusive {
			return false
		}
	}
	return true
}

// grantLocked records the grant. Callers hold m.mu.
func (m *Manager) grantLocked(kl *keyLock, owner Owner, mode Mode) {
	if i := kl.findHolder(owner); i >= 0 {
		if kl.holders[i].mode == Shared && mode == Exclusive {
			kl.holders[i].mode = Exclusive
		}
		return
	}
	kl.holders = append(kl.holders, holder{owner: owner, mode: mode, at: m.clk.Now()})
}

// TryAcquire attempts to lock key in mode without waiting; it reports
// whether the lock was granted. Waiters queued ahead block new grants (no
// barging), matching FIFO fairness.
func (m *Manager) TryAcquire(owner Owner, key string, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	kl := m.keyLock(key)
	if len(kl.queue) > 0 || !kl.compatible(owner, mode) {
		if len(kl.holders) == 0 && len(kl.queue) == 0 {
			m.dropLocked(key, kl)
		}
		return false
	}
	m.grantLocked(kl, owner, mode)
	return true
}

// Acquire locks key in mode, blocking (in clock time) until granted.
func (m *Manager) Acquire(owner Owner, key string, mode Mode) {
	m.mu.Lock()
	kl := m.keyLock(key)
	if len(kl.queue) == 0 && kl.compatible(owner, mode) {
		m.grantLocked(kl, owner, mode)
		m.mu.Unlock()
		return
	}
	g := m.clk.NewGate()
	kl.queue = append(kl.queue, waiter{owner: owner, mode: mode, gate: g})
	m.mu.Unlock()
	start := m.clk.Now()
	g.Wait()
	m.recordWait(m.clk.Now() - start)
}

// dropLocked removes an empty key lock from the table and recycles the
// record. Callers hold m.mu; kl must have no holders and no waiters.
func (m *Manager) dropLocked(key string, kl *keyLock) {
	delete(m.locks, key)
	kl.holders = kl.holders[:0]
	kl.queue = kl.queue[:0]
	klPool.Put(kl)
}

// Release unlocks key for owner and hands the lock to eligible waiters.
func (m *Manager) Release(owner Owner, key string) {
	m.mu.Lock()
	kl, ok := m.locks[key]
	if !ok {
		m.mu.Unlock()
		panic(fmt.Sprintf("lock: release of unheld key %q by owner %d", key, owner))
	}
	i := kl.findHolder(owner)
	if i < 0 {
		m.mu.Unlock()
		panic(fmt.Sprintf("lock: release of unheld key %q by owner %d", key, owner))
	}
	start := kl.holders[i].at
	last := len(kl.holders) - 1
	kl.holders[i] = kl.holders[last]
	kl.holders = kl.holders[:last]
	m.promoteLocked(kl)
	if len(kl.holders) == 0 && len(kl.queue) == 0 {
		m.dropLocked(key, kl)
	}
	m.mu.Unlock()

	m.recordHold(m.clk.Now() - start)
}

// promoteLocked grants queued waiters in FIFO order as long as they are
// compatible, firing their gates in place (Fire never blocks, so holding
// m.mu across it is safe and avoids collecting the gates). Callers hold
// m.mu.
func (m *Manager) promoteLocked(kl *keyLock) {
	n := 0
	for n < len(kl.queue) {
		w := kl.queue[n]
		if !kl.compatible(w.owner, w.mode) {
			break
		}
		m.grantLocked(kl, w.owner, w.mode)
		n++
		w.gate.Fire()
	}
	if n > 0 {
		kl.queue = kl.queue[:copy(kl.queue, kl.queue[n:])]
	}
}

// AcquireAll locks every request, blocking as needed. Requests are sorted by
// key (duplicates merged, Exclusive winning), so concurrent AcquireAll calls
// cannot deadlock — the classic ordered-acquisition discipline enabled by
// the declared read/write sets of the paper's algorithms ("get_rwsets").
// Callers must not hold other locks across the call (protocols that do,
// like MS-SR holding locks until the final commit, use AcquireAllWaitDie).
func (m *Manager) AcquireAll(owner Owner, reqs []Request) {
	for _, r := range normalized(reqs) {
		m.Acquire(owner, r.Key, r.Mode)
	}
}

// normalized returns reqs when it is already in Normalize's canonical form
// (keys strictly ascending — the txn layer caches normalized sets, so this
// is the hot case and allocates nothing) and a normalized copy otherwise.
func normalized(reqs []Request) []Request {
	for i := 1; i < len(reqs); i++ {
		if reqs[i-1].Key >= reqs[i].Key {
			return Normalize(reqs)
		}
	}
	return reqs
}

// AcquireAllWaitDie acquires every request under the wait-die discipline:
// a requester may block only when it is older (smaller Owner id — ids are
// assigned monotonically) than every current holder and queued waiter of
// the key; otherwise it "dies" — everything acquired so far is released
// and false is returned, and the caller is expected to abort. Because every
// wait edge points from an older transaction to a younger one, no cycle can
// form even when callers hold locks across calls, which is exactly the
// MS-SR situation (locks held from the initial commit to the final commit
// while new transactions keep arriving).
func (m *Manager) AcquireAllWaitDie(owner Owner, reqs []Request) bool {
	norm := normalized(reqs)
	for i, r := range norm {
		if !m.acquireWaitDie(owner, r.Key, r.Mode) {
			for j := 0; j < i; j++ {
				m.Release(owner, norm[j].Key)
			}
			return false
		}
	}
	return true
}

// acquireWaitDie takes one lock, blocking only when the wait-die age rule
// permits.
func (m *Manager) acquireWaitDie(owner Owner, key string, mode Mode) bool {
	m.mu.Lock()
	kl := m.keyLock(key)
	if len(kl.queue) == 0 && kl.compatible(owner, mode) {
		m.grantLocked(kl, owner, mode)
		m.mu.Unlock()
		return true
	}
	// The requester would wait for the current holders and everyone
	// queued ahead; it may only do so if it is older than all of them.
	for i := range kl.holders {
		h := kl.holders[i].owner
		if h != owner && h <= owner {
			m.mu.Unlock()
			return false
		}
	}
	for _, w := range kl.queue {
		if w.owner <= owner {
			m.mu.Unlock()
			return false
		}
	}
	g := m.clk.NewGate()
	kl.queue = append(kl.queue, waiter{owner: owner, mode: mode, gate: g})
	m.mu.Unlock()
	start := m.clk.Now()
	g.Wait()
	m.recordWait(m.clk.Now() - start)
	return true
}

// TryAcquireAll attempts to lock every request without waiting. On failure
// it releases everything it acquired and reports false — the no-wait abort
// policy of Algorithm 1.
func (m *Manager) TryAcquireAll(owner Owner, reqs []Request) bool {
	norm := normalized(reqs)
	for i, r := range norm {
		if !m.TryAcquire(owner, r.Key, r.Mode) {
			for j := 0; j < i; j++ {
				m.Release(owner, norm[j].Key)
			}
			return false
		}
	}
	return true
}

// ReleaseAll releases the given requests' keys (deduplicated).
func (m *Manager) ReleaseAll(owner Owner, reqs []Request) {
	for _, r := range normalized(reqs) {
		m.Release(owner, r.Key)
	}
}

// HoldStats reports the cumulative number of lock holds and their mean
// duration (the Figure 6(a) metric).
func (m *Manager) HoldStats() (count int64, mean time.Duration) {
	m.holdMu.Lock()
	defer m.holdMu.Unlock()
	if m.holdCount == 0 {
		return 0, 0
	}
	return m.holdCount, m.holdTotal / time.Duration(m.holdCount)
}

func (m *Manager) recordHold(d time.Duration) {
	m.holdMu.Lock()
	m.holdTotal += d
	m.holdCount++
	m.holdMu.Unlock()
}

// WaitStats reports how many Acquire calls had to queue and their mean
// queuing time. A workload scheduled so that conflicting transactions never
// overlap (the MS-IA sequencer) shows a zero wait count.
func (m *Manager) WaitStats() (count int64, mean time.Duration) {
	m.holdMu.Lock()
	defer m.holdMu.Unlock()
	if m.waitCount == 0 {
		return 0, 0
	}
	return m.waitCount, m.waitTotal / time.Duration(m.waitCount)
}

func (m *Manager) recordWait(d time.Duration) {
	m.holdMu.Lock()
	m.waitTotal += d
	m.waitCount++
	m.holdMu.Unlock()
}

// Outstanding reports how many keys currently have holders or waiters —
// zero after a clean run, which is how the fault tests prove a crash did
// not leak MS-SR locks.
func (m *Manager) Outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.locks)
}

// Normalize sorts requests by key and merges duplicates; a key requested in
// both modes is kept Exclusive. The input is not modified.
func Normalize(reqs []Request) []Request {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]Request, len(reqs))
	copy(out, reqs)
	return NormalizeInPlace(out)
}

// NormalizeInPlace is Normalize without the defensive copy: it sorts and
// dedupes reqs in its own backing array and returns the shortened slice.
// Hot callers that own their request slice (the txn layer's cached
// read/write sets) use this to avoid one allocation per transaction.
func NormalizeInPlace(reqs []Request) []Request {
	if len(reqs) == 0 {
		return nil
	}
	// Sort by key; within a key, Exclusive before Shared so the dedupe
	// pass below (keep-first) merges duplicate keys to Exclusive.
	slices.SortFunc(reqs, func(a, b Request) int {
		if a.Key != b.Key {
			if a.Key < b.Key {
				return -1
			}
			return 1
		}
		return int(b.Mode) - int(a.Mode)
	})
	w := 1
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Key == reqs[w-1].Key {
			continue
		}
		reqs[w] = reqs[i]
		w++
	}
	return reqs[:w]
}
