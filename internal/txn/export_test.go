package txn

import (
	"slices"
	"sync"
)

// Test-only views of the manager's dependency index.

// indexSize reports how many entries the index holds: last-writer keys,
// live (non-terminal) instances, and terminal instances waiting for a sweep.
func (m *Manager) indexSize() (lastWriter, live, waiting int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.lastWriter), len(m.live), len(m.waiting)
}

// forceSweep runs a sweep now, whatever the schedule says.
func (m *Manager) forceSweep() {
	m.mu.Lock()
	m.sweep()
	m.mu.Unlock()
}

// lastWriterOf returns the instance recorded as key's last writer, or nil.
func (m *Manager) lastWriterOf(key string) *Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastWriter[key]
}

// HistoryEntry records one boundary commit, for verifying the ordering
// guarantees of MS-SR and MS-IA.
type HistoryEntry struct {
	Txn   ID
	Stage Stage
}

// histories holds each recording manager's commits, appended under the
// manager's mu.
var histories sync.Map // *Manager → *[]HistoryEntry

// RecordHistory makes m record every boundary commit from now on, for
// History to return.
func (m *Manager) RecordHistory() {
	h := new([]HistoryEntry)
	histories.Store(m, h)
	m.mu.Lock()
	m.onCommit = func(id ID, k Stage) { *h = append(*h, HistoryEntry{Txn: id, Stage: k}) }
	m.mu.Unlock()
}

// History returns every boundary commit since RecordHistory, oldest first
// (nil when m does not record).
func (m *Manager) History() []HistoryEntry {
	h, ok := histories.Load(m)
	if !ok {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(*h.(*[]HistoryEntry))
}
