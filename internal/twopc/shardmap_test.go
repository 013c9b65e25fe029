package twopc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"croesus/internal/lock"
	"croesus/internal/netsim"
	"croesus/internal/store"
	"croesus/internal/transport"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/workload"
)

// identityShardMap is the one-shard-per-partition map: logical shard i
// lives on partition i.
func identityShardMap(n int) *ShardMap {
	owners := make([]int, n)
	for i := range owners {
		owners[i] = i
	}
	m, _ := NewShardMap(owners, n)
	return m
}

// mappedFleet builds a two-partition fleet routed through a shard map
// (shard 0 → partition 0, shard 1 → partition 1) with symmetric 5ms peer
// links, and one ShardedCC per home edge.
func mappedFleet(clk vclock.Clock) (*ShardMap, []*ShardedCC, []*Partition) {
	parts := []*Partition{
		NewPartitionOver(0, store.New(), lock.NewManager(clk)),
		NewPartitionOver(1, store.New(), lock.NewManager(clk)),
	}
	smap := identityShardMap(2)
	mgr := txn.NewManager(clk, nil, nil)
	mgr.DB = &ShardedStore{Parts: parts, Partitioner: smap.Lookup, Map: smap, Clk: clk}
	link01 := &netsim.Link{Name: "0-1", Propagation: 5 * time.Millisecond}
	link10 := &netsim.Link{Name: "1-0", Propagation: 5 * time.Millisecond}
	stats := &DistStats{}
	ccs := []*ShardedCC{
		{Clk: clk, M: mgr, Home: 0, Parts: parts, Links: []transport.Path{nil, link01}, Partitioner: smap.Lookup, Map: smap, Protocol: MSIA, Stats: stats},
		{Clk: clk, M: mgr, Home: 1, Parts: parts, Links: []transport.Path{link10, nil}, Partitioner: smap.Lookup, Map: smap, Protocol: MSIA, Stats: stats},
	}
	return smap, ccs, parts
}

func shardTxn(name string, keys ...string) *txn.Txn {
	body := func(c *txn.Ctx) error {
		for _, k := range keys {
			c.Put(k, store.StringValue(name))
		}
		return nil
	}
	return &txn.Txn{
		Name:      name,
		InitialRW: txn.RWSet{Writes: keys},
		FinalRW:   txn.RWSet{Writes: keys},
		Initial:   body,
		Final:     body,
	}
}

// TestShardMapLookupAndIntentOrdering pins the routing contract: tagged
// keys follow the owner table, untagged keys hash, and the shard intent key
// sorts before every data key of its shard so AcquireAll's sorted batches
// quiesce the shard before touching its data locks.
func TestShardMapLookupAndIntentOrdering(t *testing.T) {
	smap := identityShardMap(3)
	if got := smap.Lookup(workload.ShardKey(2, "item", 5)); got != 2 {
		t.Errorf("s2 key routed to %d", got)
	}
	if smap.Epoch() != 0 {
		t.Errorf("fresh map epoch = %d", smap.Epoch())
	}
	if k, dk := ShardIntentKey(1), workload.ShardKey(1, "item", 0); !(k < dk) {
		t.Errorf("intent key %q must sort before data key %q", k, dk)
	}
	if got := smap.Lookup(ShardIntentKey(1)); got != 1 {
		t.Errorf("intent key routed to %d, want its shard's home 1", got)
	}
}

// TestMigrateShardMovesEveryKey migrates a live shard while transactions
// from both edges keep writing it: afterwards every shard-0 key lives on
// the destination, none on the source, nothing is duplicated, and
// transactions that woke into the moved map retried rather than stranding
// writes — the no-key-lost / no-key-duplicated / one-epoch-at-a-time
// migration invariant at the protocol level.
func TestMigrateShardMovesEveryKey(t *testing.T) {
	clk := vclock.NewSim()
	smap, ccs, parts := mappedFleet(clk)

	written := make(map[string]bool)
	var wmu sync.Mutex
	writer := func(cc *ShardedCC, n int, shard int, delay time.Duration) func() {
		return func() {
			for i := 0; i < n; i++ {
				clk.Sleep(delay)
				k := workload.ShardKey(shard, "item", i)
				in := cc.M.NewInstance(shardTxn(fmt.Sprintf("w%d-%d", cc.Home, i), k), nil)
				if err := cc.RunInitial(in); err != nil {
					continue
				}
				clk.Sleep(2 * time.Millisecond) // a short "cloud" gap
				if err := cc.RunFinal(in); err != nil {
					continue
				}
				wmu.Lock()
				written[k] = true
				wmu.Unlock()
			}
		}
	}

	var migErr error
	mg := &ShardMigration{
		Clk:   clk,
		Map:   smap,
		Parts: parts,
		Shard: 0,
		From:  0,
		To:    1,
		Link:  ccs[0].Links[1],
	}
	mg.Reverse = ccs[1].Links[0]

	clk.Go(writer(ccs[0], 30, 0, 3*time.Millisecond))
	clk.Go(writer(ccs[1], 30, 0, 4*time.Millisecond))
	clk.Go(func() {
		clk.Sleep(40 * time.Millisecond) // land mid-traffic
		migErr = mg.Run()
	})
	clk.Wait()

	if migErr != nil {
		t.Fatalf("migration: %v", migErr)
	}
	if got := smap.Owner(0); got != 1 {
		t.Fatalf("shard 0 owned by %d after migration", got)
	}
	if smap.Epoch() == 0 {
		t.Fatal("epoch never advanced")
	}
	src, dst := parts[0].Store.Snapshot(), parts[1].Store.Snapshot()
	for k := range src {
		if s, ok := workload.ShardOf(k); ok && s == 0 {
			t.Errorf("shard-0 key %q still on the source partition", k)
		}
	}
	wmu.Lock()
	defer wmu.Unlock()
	if len(written) == 0 {
		t.Fatal("no transaction committed; the test is vacuous")
	}
	for k := range written {
		if _, ok := dst[k]; !ok {
			t.Errorf("committed key %q lost by the migration", k)
		}
	}
	if mg.Moved == 0 {
		t.Error("migration reports zero keys moved")
	}
}

// TestMigrateShardDeterministic replays the concurrent-migration schedule
// and demands identical stores and counters.
func TestMigrateShardDeterministic(t *testing.T) {
	run := func() (string, DistCounters) {
		clk := vclock.NewSim()
		smap, ccs, parts := mappedFleet(clk)
		mg := &ShardMigration{Clk: clk, Map: smap, Parts: parts, Shard: 0, From: 0, To: 1, Link: ccs[0].Links[1], Reverse: ccs[1].Links[0]}
		for e, cc := range ccs {
			e, cc := e, cc
			clk.Go(func() {
				for i := 0; i < 20; i++ {
					clk.Sleep(3 * time.Millisecond)
					k := workload.ShardKey(0, "item", i)
					k2 := workload.ShardKey(1, "item", i)
					in := cc.M.NewInstance(shardTxn(fmt.Sprintf("d%d-%d", e, i), k, k2), nil)
					if cc.RunInitial(in) == nil {
						clk.Sleep(time.Millisecond)
						cc.RunFinal(in)
					}
				}
			})
		}
		clk.Go(func() {
			clk.Sleep(25 * time.Millisecond)
			if err := mg.Run(); err != nil {
				t.Errorf("migration: %v", err)
			}
		})
		clk.Wait()
		return fmt.Sprintf("%v|%v", parts[0].Store.Snapshot(), parts[1].Store.Snapshot()), ccs[0].Stats.Snapshot()
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Fatalf("concurrent migration not deterministic:\n%s\n%+v\nvs\n%s\n%+v", s1, c1, s2, c2)
	}
}

// Under MS-SR's no-wait policy on a mapped fleet, the later sections' keys
// are taken after section 0's without asking again for a shard intent that
// section 0 already holds: when a later key conflicts, the abort releases
// every lock exactly once and leaves the shard's intent free.
func TestMSSRNoWaitKeepsHeldShardIntents(t *testing.T) {
	clk := vclock.NewSim()
	_, ccs, parts := mappedFleet(clk)
	cc := ccs[0]
	cc.Protocol, cc.Policy = MSSR, txn.NoWait
	a, b := workload.ShardKey(1, "item", 1), workload.ShardKey(1, "item", 2)
	const blocker = lock.Owner(1 << 62)
	if !parts[1].Locks.TryAcquire(blocker, b, lock.Exclusive) {
		t.Fatal("blocker could not lock the later section's key")
	}
	in := cc.M.NewInstance(&txn.Txn{
		Name:      "victim",
		InitialRW: txn.RWSet{Writes: []string{a}},
		FinalRW:   txn.RWSet{Writes: []string{b}},
		Initial: func(c *txn.Ctx) error {
			c.Put(a, store.Int64Value(1))
			return nil
		},
		Final: func(c *txn.Ctx) error {
			c.Put(b, store.Int64Value(2))
			return nil
		},
	}, nil)
	clk.Run(func() {
		if err := cc.RunInitial(in); !errors.Is(err, txn.ErrAborted) {
			t.Errorf("RunInitial = %v, want ErrAborted", err)
		}
	})
	parts[1].Locks.Release(blocker, b)
	if _, ok := parts[1].Store.Get(a); ok {
		t.Error("the aborted body's write survived")
	}
	wantLocksFree(t, parts)
}
