package twopc

import (
	"path/filepath"
	"strconv"
	"testing"

	"croesus/internal/lock"
	"croesus/internal/store"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/wal"
	"croesus/internal/workload"
)

// Planning a route must not append into the caller's requests. A template
// precomputes its requests into an array with spare room (core's
// workloadTxn does), and every instance of the template shares that
// array, so intents written past its length would be visible to — and
// overwritten by — every other transaction built from it.
func TestPlanLeavesTemplateRequestsAlone(t *testing.T) {
	clk := vclock.NewSim()
	_, ccs, _ := mappedFleet(clk)
	keys := []string{workload.ShardKey(0, "item", 1), workload.ShardKey(1, "item", 2)}
	var arr [8]lock.Request
	rw := txn.RWSet{Writes: keys}
	rw.Precompute(arr[:0])
	n := len(rw.Requests())
	sentinel := lock.Request{Key: "sentinel", Mode: lock.Exclusive}
	for i := n; i < len(arr); i++ {
		arr[i] = sentinel
	}
	tx := shardTxn("aliasing", keys...)
	tx.InitialRW, tx.FinalRW = rw, rw
	clk.Run(func() {
		if err := runBoth(ccs[0], tx); err != nil {
			t.Errorf("runBoth: %v", err)
		}
	})
	for i := n; i < len(arr); i++ {
		if arr[i] != sentinel {
			t.Errorf("template request slot %d = %+v after sections 0 and final, want the sentinel", i, arr[i])
		}
	}
}

// plan merges a key requested in both modes to Exclusive, groups the route
// by ascending partition with keys sorted inside each batch, and adds one
// shared intent per shard, on the shard's home partition. A batch's write
// set — what its commit logs — is exactly its exclusive requests, in key
// order.
func TestPlanSortsAndMerges(t *testing.T) {
	clk := vclock.NewSim()
	_, ccs, parts := mappedFleet(clk)
	k0, k1a, k1b, k1c := workload.ShardKey(0, "item", 3), workload.ShardKey(1, "item", 1), workload.ShardKey(1, "item", 2), workload.ShardKey(1, "item", 3)
	rt := ccs[1].plan([]lock.Request{
		{Key: k1b, Mode: lock.Shared},
		{Key: k1c, Mode: lock.Shared},
		{Key: k0, Mode: lock.Shared},
		{Key: k1a, Mode: lock.Exclusive},
		{Key: k1b, Mode: lock.Exclusive},
	}, nil)
	want := route{
		{part: 0, reqs: []lock.Request{{Key: ShardIntentKey(0), Mode: lock.Shared}, {Key: k0, Mode: lock.Shared}}},
		{part: 1, reqs: []lock.Request{{Key: ShardIntentKey(1), Mode: lock.Shared}, {Key: k1a, Mode: lock.Exclusive}, {Key: k1b, Mode: lock.Exclusive}, {Key: k1c, Mode: lock.Shared}}},
	}
	if len(rt) != len(want) {
		t.Fatalf("route has %d batches, want %d: %+v", len(rt), len(want), rt)
	}
	for i := range want {
		if rt[i].part != want[i].part || len(rt[i].reqs) != len(want[i].reqs) {
			t.Fatalf("batch %d = %+v, want %+v", i, rt[i], want[i])
		}
		for j := range want[i].reqs {
			if rt[i].reqs[j] != want[i].reqs[j] {
				t.Errorf("batch %d request %d = %+v, want %+v", i, j, rt[i].reqs[j], want[i].reqs[j])
			}
		}
	}
	// Every key of batch 1 holds a value, so a shared one would be logged
	// if the write-set filter let it through.
	for _, k := range []string{k1a, k1b, k1c} {
		parts[1].Store.Put(k, store.StringValue(k))
	}
	var w []string
	for _, r := range parts[1].RedoRecords(CommitRound{ID: 1, Round: RoundInitial}, rt[1].reqs) {
		if r.Op != wal.OpPut {
			t.Errorf("redo record %+v, want only puts", r)
		}
		w = append(w, r.Key)
	}
	if len(w) != 2 || w[0] != k1a || w[1] != k1b {
		t.Errorf("batch 1 writes %v, want [%s %s]", w, k1a, k1b)
	}
}

// keySink makes the key under test escape, as a lock request's key does.
var keySink string

// A shard map builds its shards' intent keys once; looking one up for a
// transaction allocates nothing.
func TestShardMapIntentKeys(t *testing.T) {
	m := identityShardMap(300)
	for s := 0; s < 301; s++ {
		if k, want := m.intentKey(s), "s"+strconv.Itoa(s)+"/!intent"; k != want {
			t.Errorf("intentKey(%d) = %q, want %q", s, k, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { keySink = m.intentKey(7) }); n != 0 {
		t.Errorf("intentKey allocates %v times, want 0", n)
	}
}

// sectionAllocCeiling bounds the allocations of one single-partition MS-IA
// section 0 on a mapped fleet whose partition logs to a WAL: plan,
// acquire, execute, the durable local commit, release. It measures 5.
// Race builds raise it (see race_test.go): there the lock manager's
// sync.Pool drops a share of its puts.
const sectionAllocCeiling = 7 + raceAllocSlack

func TestSinglePartitionSectionAllocCeiling(t *testing.T) {
	clk := vclock.NewSim()
	_, ccs, parts := mappedFleet(clk)
	if _, err := parts[0].OpenWAL(filepath.Join(t.TempDir(), "p0.wal"), true); err != nil {
		t.Fatal(err)
	}
	defer parts[0].CloseWAL()
	keys := []string{workload.ShardKey(0, "item", 1), workload.ShardKey(0, "item", 2)}
	read := workload.ShardKey(0, "item", 3)
	var arr [4]lock.Request
	rw := txn.RWSet{Writes: keys, Reads: []string{read}}
	rw.Precompute(arr[:0])
	body := func(c *txn.Ctx) error {
		c.Get(read)
		for _, k := range keys {
			c.Put(k, store.Int64Value(1))
		}
		return nil
	}
	tx := &txn.Txn{Name: "local", InitialRW: rw, FinalRW: rw, Initial: body, Final: body}
	const runs = 200
	ins := make([]*txn.Instance, runs+1) // AllocsPerRun adds one warm-up call
	for i := range ins {
		ins[i] = ccs[0].M.NewInstance(tx, nil)
	}
	var allocs float64
	clk.Run(func() {
		next := 0
		allocs = testing.AllocsPerRun(runs, func() {
			if err := ccs[0].RunInitial(ins[next]); err != nil {
				t.Fatalf("RunInitial: %v", err)
			}
			next++
		})
	})
	if st := ccs[0].Stats.Snapshot(); st.LocalCommits != runs+1 {
		t.Fatalf("%d local commits, want %d", st.LocalCommits, runs+1)
	}
	t.Logf("single-partition MS-IA section: %v allocations", allocs)
	if allocs > sectionAllocCeiling {
		t.Errorf("single-partition MS-IA section allocates %v times, ceiling %d", allocs, sectionAllocCeiling)
	}
}
