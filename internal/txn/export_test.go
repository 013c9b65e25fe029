package txn

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
