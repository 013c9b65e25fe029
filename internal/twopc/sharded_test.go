package twopc

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"croesus/internal/lock"
	"croesus/internal/netsim"
	"croesus/internal/obs"
	"croesus/internal/store"
	"croesus/internal/transport"
	"croesus/internal/txn"
	"croesus/internal/vclock"
)

// prefixPartitioner routes "1..." to partition 1, "2..." to 2, rest to 0.
func prefixPartitioner(key string) int {
	switch key[0] {
	case '1':
		return 1
	case '2':
		return 2
	default:
		return 0
	}
}

// testFleet builds a three-partition fleet whose home edge 0 reaches
// partition 1 over a 10ms link and partition 2 over a 30ms link (infinite
// bandwidth, so transfer time is pure propagation).
func testFleet(clk vclock.Clock) (*ShardedCC, []*Partition) {
	parts := make([]*Partition, 3)
	for i := range parts {
		parts[i] = NewPartitionOver(i, store.New(), lock.NewManager(clk))
	}
	links := []transport.Path{
		nil,
		&netsim.Link{Name: "0-1", Propagation: 10 * time.Millisecond},
		&netsim.Link{Name: "0-2", Propagation: 30 * time.Millisecond},
	}
	mgr := txn.NewManager(clk, nil, nil)
	mgr.DB = &ShardedStore{Parts: parts, Partitioner: prefixPartitioner}
	cc := &ShardedCC{
		Clk:         clk,
		M:           mgr,
		Home:        0,
		Parts:       parts,
		Links:       links,
		Partitioner: prefixPartitioner,
		Protocol:    MSIA,
		Stats:       &DistStats{},
	}
	return cc, parts
}

// shardedCrossTxn writes "1a" on partition 1 and "2b" on partition 2 in both
// sections: 1 and 2 at the initial commit, 10 and 20 at the final one, which
// first checks that it reads the initial values back.
func shardedCrossTxn() *txn.Txn {
	rw := txn.RWSet{Writes: []string{"1a", "2b"}}
	return &txn.Txn{
		Name:      "cross",
		InitialRW: rw,
		FinalRW:   rw,
		Initial: func(c *txn.Ctx) error {
			c.Put("1a", store.Int64Value(1))
			c.Put("2b", store.Int64Value(2))
			return nil
		},
		Final: func(c *txn.Ctx) error {
			for k, want := range map[string]int64{"1a": 1, "2b": 2} {
				if v, ok := c.Get(k); !ok || store.AsInt64(v) != want {
					return fmt.Errorf("final section read %q = %d %v, want %d", k, store.AsInt64(v), ok, want)
				}
				c.Put(k, store.Int64Value(want*10))
			}
			return nil
		},
	}
}

// runBoth drives one instance of t through both commits and returns the
// first error.
func runBoth(cc *ShardedCC, t *txn.Txn) error {
	in := cc.M.NewInstance(t, nil)
	if err := cc.RunInitial(in); err != nil {
		return err
	}
	return cc.RunFinal(in)
}

// wantLanded checks that shardedCrossTxn's final values sit on the
// partitions the partitioner names, and nowhere else.
func wantLanded(t *testing.T, parts []*Partition) {
	t.Helper()
	for k, want := range map[string]int64{"1a": 10, "2b": 20} {
		for i, p := range parts {
			v, ok := p.Store.Get(k)
			if owner := i == prefixPartitioner(k); ok != owner || (owner && store.AsInt64(v) != want) {
				t.Errorf("partition %d (ID %d) key %q = %d %v, want %d on its owner only", i, p.ID, k, store.AsInt64(v), ok, want)
			}
		}
	}
}

// crossResult is what one shardedCrossTxn left behind on testFleet.
type crossResult struct {
	st DistCounters
	// early counts the keys a foreign owner could lock shared on the owning
	// partition and read between the two commits.
	early int
	took  time.Duration // virtual time from first lock request to last release
	msgs  int64         // messages on the two remote links
}

// crossRun plays shardedCrossTxn under proto on a testFleet whose partition
// IDs start at idBase (so idBase != 0 makes every ID differ from its slice
// index), and checks that the values landed and every lock is free.
func crossRun(t *testing.T, proto Protocol, idBase int) crossResult {
	t.Helper()
	clk := vclock.NewSim()
	cc, parts := testFleet(clk)
	cc.Protocol = proto
	for i, p := range parts {
		p.ID = idBase + i
	}
	var r crossResult
	clk.Run(func() {
		const probe = lock.Owner(1 << 62)
		in := cc.M.NewInstance(shardedCrossTxn(), nil)
		if err := cc.RunInitial(in); err != nil {
			t.Errorf("%s RunInitial: %v", proto, err)
			return
		}
		for _, k := range []string{"1a", "2b"} {
			p := parts[prefixPartitioner(k)]
			if p.Locks.TryAcquire(probe, k, lock.Shared) {
				if _, ok := p.Store.Get(k); ok {
					r.early++
				}
				p.Locks.Release(probe, k)
			}
		}
		if err := cc.RunFinal(in); err != nil {
			t.Errorf("%s RunFinal: %v", proto, err)
		}
		r.took = clk.Now()
	})
	wantLanded(t, parts)
	wantLocksFree(t, parts)
	r.st = cc.Stats.Snapshot()
	for _, l := range cc.Links[1:] {
		_, m := l.(*netsim.Link).Traffic()
		r.msgs += m
	}
	return r
}

func wantLocksFree(t *testing.T, parts []*Partition) {
	t.Helper()
	for i, p := range parts {
		if n := p.Locks.Outstanding(); n != 0 {
			t.Errorf("partition %d still has %d locked keys", i, n)
		}
	}
}

func TestMSIACommitAcrossPartitions(t *testing.T) {
	st := crossRun(t, MSIA, 0).st
	if st.TwoPCRounds != 2 || st.CrossEdgeCommits != 2 {
		t.Errorf("rounds/cross commits = %d/%d, want 2/2 (both commits atomic under MS-IA)", st.TwoPCRounds, st.CrossEdgeCommits)
	}
}

func TestMSSRSingleAtomicCommit(t *testing.T) {
	st := crossRun(t, MSSR, 0).st
	if st.TwoPCRounds != 1 || st.CrossEdgeCommits != 1 {
		t.Errorf("rounds/cross commits = %d/%d, want 1/1 (MS-SR commits once, at the final)", st.TwoPCRounds, st.CrossEdgeCommits)
	}
}

// Under MS-IA the initial commit releases its locks, so another owner reads
// the initial writes on their partitions before the final section runs.
func TestMSIAInitialVisibleBeforeFinal(t *testing.T) {
	if early := crossRun(t, MSIA, 0).early; early != 2 {
		t.Errorf("%d of 2 keys readable by a foreign owner after the MS-IA initial commit", early)
	}
}

// Under MS-SR the eager initial writes stay behind the held locks until the
// final commit's one round.
func TestMSSRInitialInvisibleBeforeFinal(t *testing.T) {
	if early := crossRun(t, MSSR, 0).early; early != 0 {
		t.Errorf("%d of 2 keys readable by a foreign owner before the MS-SR final commit", early)
	}
}

// Link time is charged, exactly: one commit over testFleet's 10 ms and 30 ms
// links costs the 210 ms TestCommitFanOutChargesMaxNotSum breaks down. MS-IA
// pays it at both commits; MS-SR locks at the initial section and runs the
// round and the release at the final one. Each commit is 2 lock requests, 2
// grants, 2×2 prepare messages, 2 commits and 2 releases.
func TestNetworkCostCharged(t *testing.T) {
	for _, row := range []struct {
		proto Protocol
		took  time.Duration
		msgs  int64
	}{
		{MSIA, 420 * time.Millisecond, 24},
		{MSSR, 210 * time.Millisecond, 12},
	} {
		r := crossRun(t, row.proto, 0)
		if r.took != row.took || r.msgs != row.msgs {
			t.Errorf("%s: %s and %d remote messages, want %s and %d", row.proto, r.took, r.msgs, row.took, row.msgs)
		}
	}
}

// The partitioner's output indexes Parts; Partition.ID is a label that need
// not agree with it.
func TestBufferedReadsNonIdentityIDs(t *testing.T) {
	for _, proto := range []Protocol{MSIA, MSSR} {
		crossRun(t, proto, 10)
	}
}

// A section body that fails — in the initial section or in the final one —
// leaves no lock behind on any partition, and the same keys commit afterwards.
func TestLocksReleasedAfterAbort(t *testing.T) {
	boom := errors.New("boom")
	for _, proto := range []Protocol{MSIA, MSSR} {
		for _, failFinal := range []bool{false, true} {
			clk := vclock.NewSim()
			cc, parts := testFleet(clk)
			cc.Protocol = proto
			doomed := shardedCrossTxn()
			if failFinal {
				doomed.Final = func(*txn.Ctx) error { return boom }
			} else {
				doomed.Initial = func(*txn.Ctx) error { return boom }
			}
			clk.Run(func() {
				if err := runBoth(cc, doomed); !errors.Is(err, boom) {
					t.Errorf("%s failFinal=%v: err = %v, want the body's", proto, failFinal, err)
				}
				wantLocksFree(t, parts)
				if err := runBoth(cc, shardedCrossTxn()); err != nil {
					t.Errorf("%s failFinal=%v: retry over the same keys: %v", proto, failFinal, err)
				}
			})
			wantLanded(t, parts)
			wantLocksFree(t, parts)
		}
	}
}

// Under the no-wait policy an MS-SR conflict on the remote partition of a
// two-partition route aborts the transaction, whether the key is in section
// 0's set or only a later section's (taken after the body, before the
// commit). Either abort is counted once, undoes the body's local write and
// leaves no lock on either partition; once the conflict is gone the same
// transaction commits both partitions in one round.
func TestMSSRNoWaitAbortsOnRemoteConflict(t *testing.T) {
	for _, tc := range []struct {
		name           string
		initial, final txn.RWSet
	}{
		{"initial set", txn.RWSet{Writes: []string{"0a", "1x"}}, txn.RWSet{Reads: []string{"0a"}}},
		{"later section", txn.RWSet{Writes: []string{"0a"}}, txn.RWSet{Writes: []string{"1x"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewSim()
			cc, parts := testFleet(clk)
			parts = parts[:2]
			cc.Parts, cc.Links = parts, cc.Links[:2]
			cc.Protocol, cc.Policy = MSSR, txn.NoWait
			victim := &txn.Txn{
				Name:      "victim",
				InitialRW: tc.initial,
				FinalRW:   tc.final,
				Initial: func(c *txn.Ctx) error {
					c.Put("0a", store.Int64Value(1))
					return nil
				},
				Final: func(c *txn.Ctx) error {
					c.Put("1x", store.Int64Value(2))
					return nil
				},
			}
			const blocker = lock.Owner(1 << 62)
			if !parts[1].Locks.TryAcquire(blocker, "1x", lock.Exclusive) {
				t.Fatal("blocker could not lock 1x")
			}
			in := cc.M.NewInstance(victim, nil)
			clk.Run(func() {
				if err := cc.RunInitial(in); !errors.Is(err, txn.ErrAborted) {
					t.Errorf("RunInitial = %v, want ErrAborted", err)
				}
			})
			parts[1].Locks.Release(blocker, "1x")
			if in.State() != txn.StateAborted {
				t.Errorf("state = %v, want aborted", in.State())
			}
			if _, ok := parts[0].Store.Get("0a"); ok {
				t.Error("the aborted body's local write survived")
			}
			if got, want := cc.Stats.Snapshot().Aborts, int64(1); got != want {
				t.Errorf("2PC aborts = %d, want %d", got, want)
			}
			if got := cc.M.Stats().Aborts; got != 1 {
				t.Errorf("manager aborts = %d, want 1", got)
			}
			wantLocksFree(t, parts)

			if tc.final.Writes == nil {
				victim.Final = func(*txn.Ctx) error { return nil }
			}
			clk.Run(func() {
				if err := runBoth(cc, victim); err != nil {
					t.Errorf("retry without the conflict: %v", err)
				}
			})
			if st := cc.Stats.Snapshot(); st.CrossEdgeCommits != 1 || st.TwoPCRounds != 1 {
				t.Errorf("retry ran %d cross-edge commits in %d rounds, want one of each", st.CrossEdgeCommits, st.TwoPCRounds)
			}
			wantLocksFree(t, parts)
		})
	}
}

// A lock conflict that fails at once — a no-wait conflict, or a wait-die
// death against an older holder — leaves exactly one lock.abort span, of
// zero length, for the one abort the counters record.
func TestImmediateLockAbortLeavesSpan(t *testing.T) {
	for _, policy := range []txn.Policy{txn.NoWait, txn.Wait} {
		clk := vclock.NewSim()
		cc, parts := testFleet(clk)
		cc.Protocol, cc.Policy = MSSR, policy
		cc.Obs = obs.New()
		// Owner 0 is older than every instance, so a wait-die requester
		// dies rather than waits.
		const holder = lock.Owner(0)
		if !parts[0].Locks.TryAcquire(holder, "0a", lock.Exclusive) {
			t.Fatal("holder could not lock 0a")
		}
		victim := &txn.Txn{
			Name:      "victim",
			InitialRW: txn.RWSet{Writes: []string{"0a"}},
			Initial:   func(*txn.Ctx) error { return nil },
			Final:     func(*txn.Ctx) error { return nil },
		}
		clk.Run(func() {
			if err := cc.RunInitial(cc.M.NewInstance(victim, nil)); !errors.Is(err, txn.ErrAborted) {
				t.Errorf("policy %v: RunInitial = %v, want ErrAborted", policy, err)
			}
		})
		if got := cc.M.Stats().Aborts; got != 1 {
			t.Errorf("policy %v: aborts = %d, want 1", policy, got)
		}
		var aborts []obs.Span
		for _, sp := range cc.Obs.Tracer().Spans() {
			if sp.Name == obs.SpanLockAbort {
				aborts = append(aborts, sp)
			}
		}
		if len(aborts) != 1 || aborts[0].End != aborts[0].Start {
			t.Errorf("policy %v: lock.abort spans = %+v, want one of zero length", policy, aborts)
		}
	}
}

// A read-only transaction locks its key remotely (request, grant, release per
// acquisition) and pays nothing else: no round, no prepare, no commit.
func TestEmptyWriteSetCostsNothing(t *testing.T) {
	for _, proto := range []Protocol{MSIA, MSSR} {
		clk := vclock.NewSim()
		cc, _ := testFleet(clk)
		cc.Protocol = proto
		read := func(c *txn.Ctx) error { c.Get("1a"); return nil }
		rw := txn.RWSet{Reads: []string{"1a"}}
		clk.Run(func() {
			if err := runBoth(cc, &txn.Txn{Name: "read-only", InitialRW: rw, FinalRW: rw, Initial: read, Final: read}); err != nil {
				t.Errorf("%s: %v", proto, err)
			}
		})
		st := cc.Stats.Snapshot()
		if want := (DistCounters{LockRPCs: st.LockRPCs}); st != want {
			t.Errorf("%s: read-only transaction paid commit machinery: %+v", proto, st)
		}
		if _, msgs := cc.Links[1].(*netsim.Link).Traffic(); st.LockRPCs == 0 || msgs != 3*st.LockRPCs {
			t.Errorf("%s: %d remote messages for %d lock RPCs, want 3 each", proto, msgs, st.LockRPCs)
		}
	}
}

// One section reads its own writes and deletes through the ShardedStore, on
// keys of two partitions.
func TestBufferedReadsSeeOwnWrites(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts := testFleet(clk)
	keys := []string{"1a", "2b"}
	rmw := &txn.Txn{
		Name:      "rmw",
		InitialRW: txn.RWSet{Writes: keys},
		Initial: func(c *txn.Ctx) error {
			for _, k := range keys {
				c.Put(k, store.Int64Value(1))
				if v, ok := c.Get(k); !ok || store.AsInt64(v) != 1 {
					return fmt.Errorf("own write of %q invisible", k)
				}
				c.Delete(k)
				if _, ok := c.Get(k); ok {
					return fmt.Errorf("own delete of %q invisible", k)
				}
				c.Put(k, store.Int64Value(2))
			}
			return nil
		},
		Final: func(*txn.Ctx) error { return nil },
	}
	clk.Run(func() {
		if err := runBoth(cc, rmw); err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	for _, k := range keys {
		if v, _ := parts[prefixPartitioner(k)].Store.Get(k); store.AsInt64(v) != 2 {
			t.Errorf("%q = %d, want 2", k, store.AsInt64(v))
		}
	}
}

func TestProtocolStrings(t *testing.T) {
	if MSSR.String() != "MS-SR" || MSIA.String() != "MS-IA" {
		t.Error("protocol strings wrong")
	}
}

// The 2PC prepare/commit fan-out is parallel: each phase charges every
// involved link but costs only the slowest round trip, not the sum of
// sequential partition visits. With 10ms and 30ms links, one initial
// commit breaks down as
//
//	lock round (ordered, sequential):  2×10 + 2×30 = 80ms
//	prepare fan-out (parallel):        max(2×10, 2×30) = 60ms
//	commit fan-out (parallel):         max(10, 30)     = 30ms
//	release round (one-way each):      10 + 30         = 40ms
//
// for 210ms total; the old sequential rounds cost 80+80+40+40 = 240ms.
func TestCommitFanOutChargesMaxNotSum(t *testing.T) {
	clk := vclock.NewSim()
	cc, _ := testFleet(clk)
	var elapsed time.Duration
	clk.Run(func() {
		start := clk.Now()
		in := cc.M.NewInstance(shardedCrossTxn(), nil)
		if err := cc.RunInitial(in); err != nil {
			t.Errorf("RunInitial: %v", err)
		}
		elapsed = clk.Now() - start
	})
	if want := 210 * time.Millisecond; elapsed != want {
		t.Errorf("initial commit took %s, want %s (parallel fan-out charges the max per phase)", elapsed, want)
	}
	st := cc.Stats.Snapshot()
	if st.TwoPCRounds != 1 || st.CrossEdgeCommits != 1 {
		t.Errorf("rounds/cross = %d/%d, want 1/1", st.TwoPCRounds, st.CrossEdgeCommits)
	}
	if st.PrepareRPCs != 2 || st.CommitRPCs != 2 {
		t.Errorf("prepare/commit RPCs = %d/%d, want 2/2 — the fan-out must still message every participant", st.PrepareRPCs, st.CommitRPCs)
	}
	if st.LockRPCs != 2 {
		t.Errorf("lock RPCs = %d, want 2", st.LockRPCs)
	}
}

// A durable fleet logs every section commit: single-partition commits as a
// closed data batch, multi-partition commits as staged blocks plus the
// coordinator's decision — and each partition's log recovers to exactly
// its live store, with nothing left staged.
func TestDurableCommitLifecycle(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts := testFleet(clk)
	dir := t.TempDir()
	for i, p := range parts {
		if _, err := p.OpenWAL(filepath.Join(dir, "p.wal"+string(rune('0'+i))), false); err != nil {
			t.Fatal(err)
		}
		defer p.CloseWAL()
	}

	clk.Run(func() {
		in := cc.M.NewInstance(shardedCrossTxn(), nil)
		if err := cc.RunInitial(in); err != nil {
			t.Errorf("RunInitial: %v", err)
			return
		}
		if err := cc.RunFinal(in); err != nil {
			t.Errorf("RunFinal: %v", err)
		}
		// A home-only transaction exercises the local durable commit.
		local := &txn.Txn{
			Name:      "local",
			InitialRW: txn.RWSet{Writes: []string{"0c"}},
			FinalRW:   txn.RWSet{},
			Initial: func(c *txn.Ctx) error {
				c.Put("0c", store.Int64Value(3))
				return nil
			},
			Final: func(c *txn.Ctx) error { return nil },
		}
		lin := cc.M.NewInstance(local, nil)
		if err := cc.RunInitial(lin); err != nil {
			t.Errorf("local RunInitial: %v", err)
		}
		if err := cc.RunFinal(lin); err != nil {
			t.Errorf("local RunFinal: %v", err)
		}
	})

	for i, p := range parts {
		if _, err := p.VerifyWAL(); err != nil {
			t.Errorf("partition %d: %v", i, err)
		}
		if ids := p.StagedBy(0); len(ids) != 0 {
			t.Errorf("partition %d still stages %v", i, ids)
		}
	}
}
