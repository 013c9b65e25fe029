package tcpnet

import (
	"bytes"
	"fmt"
	"sync"

	"croesus/internal/store"
	"croesus/internal/wal"
)

// walBackend is the standalone edge's durable storage seam: a txn.Backend
// that journals every mutation write-ahead before applying it to the live
// store. It also owns the checkpoint/verify operations the orchestrator
// drives over the control channel — both quiesce writers on the same mutex
// the data path takes, which is the wal package's "externally quiesced"
// requirement.
type walBackend struct {
	st     *store.Store
	path   string
	nosync bool
	logf   func(format string, args ...any)

	mu  sync.Mutex
	log *wal.Log
}

// openWALBackend recovers any existing log at path into st (a respawned
// edge comes back with its committed state), then opens the log for
// appending. Returns the backend and the replayed record count.
func openWALBackend(path string, nosync bool, st *store.Store, logf func(string, ...any)) (*walBackend, int, error) {
	res, err := wal.Recover(path)
	if err != nil {
		return nil, 0, err
	}
	if res.Truncated {
		logf("edge: wal %s had a truncated tail (dropped)", path)
	}
	st.Restore(res.Store.Snapshot())
	log, err := wal.Open(path)
	if err != nil {
		return nil, 0, err
	}
	log.NoSync = nosync
	return &walBackend{st: st, path: path, nosync: nosync, logf: logf, log: log}, res.Records, nil
}

// Get implements txn.Backend.
func (b *walBackend) Get(key string) (store.Value, bool) { return b.st.Get(key) }

// Put implements txn.Backend: journal, then apply.
func (b *walBackend) Put(key string, v store.Value) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.log.Append(wal.Record{Op: wal.OpPut, Key: key, Value: v}); err != nil {
		b.logf("edge: wal append: %v", err)
	}
	return b.st.Put(key, v)
}

// Delete implements txn.Backend: journal, then apply.
func (b *walBackend) Delete(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.log.Append(wal.Record{Op: wal.OpDelete, Key: key}); err != nil {
		b.logf("edge: wal append: %v", err)
	}
	return b.st.Delete(key)
}

// checkpoint compacts the log to a snapshot of current store state,
// bounding replay time. Writers are quiesced for the swap.
func (b *walBackend) checkpoint() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.log.Close(); err != nil {
		return err
	}
	cerr := wal.Checkpoint(b.st, b.path)
	log, err := wal.Open(b.path)
	if err != nil {
		return err
	}
	log.NoSync = b.nosync
	b.log = log
	return cerr
}

// verify recovers the log into a fresh store and compares it with the live
// store — the durability invariant the fleet asserts after a run: what the
// WAL would recover is exactly what the edge is serving. Writers are
// quiesced for the comparison. Returns the replayed record count.
func (b *walBackend) verify() (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	res, err := wal.Recover(b.path)
	if err != nil {
		return 0, err
	}
	n := res.Records
	if res.Truncated {
		return n, fmt.Errorf("wal has a truncated tail")
	}
	want := b.st.Snapshot()
	got := res.Store.Snapshot()
	if len(got) != len(want) {
		return n, fmt.Errorf("replay yields %d keys, live store has %d", len(got), len(want))
	}
	for k, v := range want {
		rv, ok := got[k]
		if !ok {
			return n, fmt.Errorf("key %q in live store missing from replay", k)
		}
		if !bytes.Equal(rv, v) {
			return n, fmt.Errorf("key %q differs between replay and live store", k)
		}
	}
	return n, nil
}

// close closes the log.
func (b *walBackend) close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.Close()
}

// WALReplayed reports how many WAL records were replayed at startup (0
// without a WAL or on a fresh path) — a respawned edge reports its
// recovery here.
func (s *EdgeServer) WALReplayed() int { return s.replayed }

// CheckpointWAL compacts the edge's WAL to a snapshot of current state.
func (s *EdgeServer) CheckpointWAL() error {
	if s.walB == nil {
		return fmt.Errorf("tcpnet: no WAL configured")
	}
	return s.walB.checkpoint()
}

// VerifyWAL checks the durability invariant: replaying the WAL must
// reproduce exactly the live store. Returns the replayed record count; a
// nil error is a clean verdict. Call at quiesce — writers are paused
// during the comparison, but frames mid-pipeline can land writes between
// two calls.
func (s *EdgeServer) VerifyWAL() (int, error) {
	if s.walB == nil {
		return 0, fmt.Errorf("tcpnet: no WAL configured")
	}
	return s.walB.verify()
}

// SetDraining makes the edge refuse new frames while in-flight ones finish
// (true) or accept again (false) — the fleet's edge_retire drain.
func (s *EdgeServer) SetDraining(d bool) {
	s.mu.Lock()
	s.draining = d
	s.mu.Unlock()
}

// Draining reports whether the edge is refusing new frames.
func (s *EdgeServer) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Dropped reports frames refused by drain or a severed client path.
func (s *EdgeServer) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// SetPathDown blackholes (down=true) or heals one of the edge's modeled
// paths: "client" (frames are dropped on ingest) or "cloud" (validations
// are lost and frames finalize with edge answers) — the orchestrator's
// per-path link fault.
func (s *EdgeServer) SetPathDown(path string, down bool) error {
	switch path {
	case "client":
		s.clientPath.SetDown(down)
	case "cloud":
		s.cloudPath.SetDown(down)
	default:
		return fmt.Errorf("tcpnet: unknown path %q (want client or cloud)", path)
	}
	return nil
}
