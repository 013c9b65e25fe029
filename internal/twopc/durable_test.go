package twopc

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"croesus/internal/lock"
	"croesus/internal/store"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/wal"
)

// A deferred in-doubt resolution must not clobber state that changed while
// the block sat staged (the crash freed its locks): DeliverDecision skips
// staged writes whose key logged a newer data record since restage, and
// the live store must agree with what the log recovers to.
func TestRestagedCommitSkipsSupersededWrites(t *testing.T) {
	clk := vclock.NewSim()
	p := NewPartitionOver(0, store.New(), lock.NewManager(clk))
	path := filepath.Join(t.TempDir(), "p.wal")
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	p.WAL = l

	// The pre-crash participant staged this block durably (data records +
	// prepare marker), then the edge crashed and recovery restaged it.
	cr := CommitRound{ID: 9, Round: 1}
	recs := []wal.Record{
		{Op: wal.OpPut, Txn: uint64(cr.ID), Round: cr.Round, Key: "k", Value: store.Int64Value(1)},
		{Op: wal.OpPut, Txn: uint64(cr.ID), Round: cr.Round, Key: "j", Value: store.Int64Value(2)},
	}
	if err := l.AppendBatch(append(append([]wal.Record{}, recs...),
		wal.Record{Op: wal.OpPrepare, Txn: uint64(cr.ID), Round: cr.Round, Coord: 0})); err != nil {
		t.Fatal(err)
	}
	p.Restage(cr, 0, recs)

	// While the block is in doubt, a retraction restore overwrites k
	// through the journaling backend — a newer data record.
	js := JournaledShardedStore{ShardedStore: &ShardedStore{
		Parts:       []*Partition{p},
		Partitioner: func(string) int { return 0 },
	}}
	js.Put("k", store.Int64Value(7))

	// The deferred decision arrives: commit. k was superseded, j was not.
	p.DeliverDecision(cr, true)
	if v, _ := p.Store.Get("k"); store.AsInt64(v) != 7 {
		t.Errorf("k = %v, want the later journaled 7 (staged write superseded)", v)
	}
	if v, ok := p.Store.Get("j"); !ok || store.AsInt64(v) != 2 {
		t.Errorf("j = %v %v, want the unsuperseded staged 2", v, ok)
	}

	// Replay must reach the same state by its log-position rule.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InDoubt) != 0 {
		t.Fatalf("in-doubt after resolution: %+v", res.InDoubt)
	}
	for k, want := range map[string]int64{"k": 7, "j": 2} {
		if v, ok := res.Store.Get(k); !ok || store.AsInt64(v) != want {
			t.Errorf("recovered %s = %v %v, want %d", k, v, ok, want)
		}
	}
	if !res.Decisions[cr.TxnRound()] {
		t.Error("commit marker missing from the log")
	}
}

// Presumed abort's forget step: once every participant has logged a
// round's commit, the coordinator drops the decision, and the end record
// that retires it rides the coordinator's next batch instead of a write of
// its own. A checkpoint then carries no decision, and recovery brings none
// back — nor a single-partition commit or a participant's marker, which
// are outcomes, not decisions.
func TestDecidedRoundsAreForgotten(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts := testFleet(clk)
	dir := t.TempDir()
	for i, p := range parts {
		if _, err := p.OpenWAL(filepath.Join(dir, "p.wal"+string(rune('0'+i))), false); err != nil {
			t.Fatal(err)
		}
		defer p.CloseWAL()
	}
	logged := func(p *Partition) []wal.TxnRound {
		t.Helper()
		res, err := wal.Recover(p.WALPath())
		if err != nil {
			t.Fatal(err)
		}
		return res.Decided
	}
	run := func(tx *txn.Txn) (id txn.ID) {
		clk.Run(func() {
			in := cc.M.NewInstance(tx, nil)
			id = in.ID
			if err := cc.RunInitial(in); err != nil {
				t.Errorf("%s RunInitial: %v", tx.Name, err)
			} else if err := cc.RunFinal(in); err != nil {
				t.Errorf("%s RunFinal: %v", tx.Name, err)
			}
		})
		return id
	}

	id := run(shardedCrossTxn()) // coordinated by partition 0, which writes nothing
	for r := range 2 {
		if cr := (CommitRound{ID: id, Round: uint8(r)}); parts[0].Decided(cr) {
			t.Errorf("the coordinator keeps round %d after every participant logged it", r)
		}
	}
	// Round 0's end rode round 1's decision; round 1's waits for a batch.
	final := CommitRound{ID: id, Round: 1}.TxnRound()
	if got := logged(parts[0]); len(got) != 1 || got[0] != final {
		t.Errorf("coordinator's log decides %v, want only the final round, whose end is not yet logged", got)
	}
	run(&txn.Txn{
		Name:      "local",
		InitialRW: txn.RWSet{Writes: []string{"0c"}},
		Initial: func(c *txn.Ctx) error {
			c.Put("0c", store.Int64Value(3))
			return nil
		},
		Final: func(c *txn.Ctx) error { return nil },
	})
	if got := logged(parts[0]); len(got) != 0 {
		t.Errorf("coordinator's log still decides %v after its next batch", got)
	}
	if n, ok, err := parts[0].Checkpoint(); err != nil || !ok || n != parts[0].Store.Len() {
		t.Errorf("checkpoint wrote %d records (ok %v, err %v), want one per key (%d) and no decision", n, ok, err, parts[0].Store.Len())
	}
	for i, p := range parts {
		res, err := p.VerifyWAL()
		if err != nil {
			t.Errorf("partition %d: %v", i, err)
		} else if len(res.Decided) != 0 {
			t.Errorf("partition %d recovers decisions %v", i, res.Decided)
		}
	}
}

// journaledPart opens a durable one-partition fleet — the shape of a
// standalone croesus edge's store — logging to a fresh temp file.
func journaledPart(t *testing.T, clk vclock.Clock) (*Partition, JournaledShardedStore) {
	t.Helper()
	p := NewPartitionOver(0, store.New(), lock.NewManager(clk))
	if _, err := p.OpenWAL(filepath.Join(t.TempDir(), "p.wal"), true); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.CloseWAL() })
	return p, JournaledShardedStore{ShardedStore: &ShardedStore{
		Parts:       []*Partition{p},
		Partitioner: func(string) int { return 0 },
	}}
}

// A checkpoint compacts many overwrites of few keys to one record per live
// key, and the compacted log still replays to exactly the store.
func TestCheckpointCompactsLog(t *testing.T) {
	p, js := journaledPart(t, vclock.NewSim())
	for i := 0; i < 200; i++ {
		js.Put(store.ItoaKey("k", i%4), store.Int64Value(int64(i)))
	}
	big := p.WAL.Size()
	n, ok, err := p.Checkpoint()
	if err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	if small := p.WAL.Size(); small*10 > big {
		t.Errorf("checkpoint did not compact 10x: %d bytes, was %d", small, big)
	}
	if n != p.Store.Len() || n != 4 {
		t.Errorf("checkpoint wrote %d records, want one per live key (%d)", n, p.Store.Len())
	}
	res, err := p.VerifyWAL()
	if err != nil {
		t.Fatalf("replay after checkpoint: %v", err)
	}
	if res.Records != n {
		t.Errorf("replayed %d records, checkpoint wrote %d", res.Records, n)
	}
}

// On a wall clock a checkpoint can run between a journaled write's append
// and its apply; unless both happen under one hold of the partition lock
// the checkpoint snapshots the old value while the live store takes the
// new one. Writers race a checkpoint loop that verifies after every
// rewrite, and the log must replay to the store throughout.
func TestJournaledWritesRaceCheckpoint(t *testing.T) {
	p, js := journaledPart(t, vclock.NewReal())
	const writers, puts = 4, 2000
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := p.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			if _, err := p.VerifyWAL(); err != nil {
				t.Errorf("mid-run durability: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				k := store.ItoaKey("k", i%16)
				if i%7 == 0 {
					js.Delete(k)
				} else {
					js.Put(k, store.Int64Value(int64(w*puts+i)))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done
	if _, err := p.VerifyWAL(); err != nil {
		t.Fatalf("durability: %v", err)
	}
}

// The durability check rejects each way a log can disagree with its
// partition.
func TestVerifyWALRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(p *Partition)
		want  string
	}{
		{"live key missing from the log", func(p *Partition) { p.Store.Put("ghost", store.Int64Value(1)) }, "missing from replay"},
		{"differing value", func(p *Partition) { p.Store.Put("a", store.Int64Value(99)) }, `key "a"`},
		{"extra replayed key", func(p *Partition) { p.Store.Delete("a") }, "replay yields 2 keys"},
		{"torn tail", func(p *Partition) {
			f, err := os.OpenFile(p.WALPath(), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{9, 0, 0, 0, 0xde, 0xad}) // half a record
			f.Close()
		}, "torn tail"},
		{"unresolved in-doubt block", func(p *Partition) {
			cr := CommitRound{ID: 5, Round: 1}
			p.StagePrepare(cr, 1, []wal.Record{{Op: wal.OpPut, Txn: uint64(cr.ID), Round: cr.Round, Key: "b", Value: store.Int64Value(3)}})
		}, "in-doubt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, js := journaledPart(t, vclock.NewSim())
			js.Put("a", store.Int64Value(1))
			js.Put("b", store.Int64Value(2))
			if _, err := p.VerifyWAL(); err != nil {
				t.Fatalf("clean partition rejected: %v", err)
			}
			tc.spoil(p)
			if _, err := p.VerifyWAL(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want a rejection mentioning %q", err, tc.want)
			}
		})
	}
}
