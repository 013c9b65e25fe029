// Package store implements the edge node's data store: a versioned,
// concurrency-safe in-memory key-value map. Transactions (package txn) layer
// undo logging and dependency tracking on top of it.
package store

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"
)

// Value is the stored payload. Values are copied on read and write so
// callers cannot alias the store's internal state.
type Value []byte

// Clone returns an independent copy of v.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	out := make(Value, len(v))
	copy(out, v)
	return out
}

type entry struct {
	val Value
	ver uint64
}

// Store is a thread-safe versioned key-value store.
type Store struct {
	mu   sync.RWMutex
	m    map[string]entry
	next uint64

	reads, writes, deletes atomic.Int64
}

// New returns an empty store.
func New() *Store {
	return &Store{m: make(map[string]entry)}
}

// Get returns the value stored at key and whether it exists.
func (s *Store) Get(key string) (Value, bool) {
	s.reads.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[key]
	if !ok {
		return nil, false
	}
	return e.val.Clone(), true
}

// Peek returns the value stored at key without copying it and without
// counting a read — for a write-ahead log capturing a commit's redo image.
// The caller must not modify the slice. Stored values are never modified in
// place (Put and Restore store fresh copies), so it stays valid after later
// writes to the key.
func (s *Store) Peek(key string) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[key]
	return e.val, ok
}

// Version returns the key's write version (0 if absent). Versions increase
// monotonically across all keys, so they double as a write timestamp.
func (s *Store) Version(key string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key].ver
}

// Put stores value at key and returns the new version.
func (s *Store) Put(key string, value Value) uint64 {
	s.writes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	// Re-writing a key with identical bytes (the dominant pattern for the
	// label workload) keeps the existing private clone instead of copying
	// the value again.
	if e, ok := s.m[key]; ok && bytes.Equal(e.val, value) {
		e.ver = s.next
		s.m[key] = e
		return s.next
	}
	s.m[key] = entry{val: value.Clone(), ver: s.next}
	return s.next
}

// Delete removes key; it reports whether the key existed.
func (s *Store) Delete(key string) bool {
	s.deletes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[key]
	delete(s.m, key)
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Keys returns all keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.m {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Stats reports cumulative operation counts.
func (s *Store) Stats() (reads, writes, deletes int64) {
	return s.reads.Load(), s.writes.Load(), s.deletes.Load()
}

// Snapshot returns a deep copy of the store's contents, for tests and
// experiment resets.
func (s *Store) Snapshot() map[string]Value {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]Value, len(s.m))
	for k, e := range s.m {
		out[k] = e.val.Clone()
	}
	return out
}

// Restore replaces the store's contents with the snapshot.
func (s *Store) Restore(snap map[string]Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = make(map[string]entry, len(snap))
	for k, v := range snap {
		s.next++
		s.m[k] = entry{val: v.Clone(), ver: s.next}
	}
}
