package node

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/store"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
	"croesus/internal/wal"
)

func TestParseProtocol(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    twopc.Protocol
		wantErr bool
	}{
		{in: "", want: twopc.MSIA},
		{in: "ms-ia", want: twopc.MSIA},
		{in: "ms-sr", want: twopc.MSSR},
		{in: "2pl", wantErr: true},
		{in: "MS-SR", wantErr: true}, // the spelling is lower case only
		{in: "mssr", wantErr: true},
		{in: " ms-ia", wantErr: true},
	} {
		got, err := ParseProtocol(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseProtocol(%q) = %v, accepted an unknown protocol", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestNewBindsStack checks that New builds a one-partition, link-less fleet:
// the manager writes through the fleet's store to the partition's store and
// locks, which are the assembly's, and the CC is a ShardedCC under the
// protocol, wait-die for MS-SR, over that manager and partition. Two calls
// share nothing, and neither has a durable partition.
func TestNewBindsStack(t *testing.T) {
	clk := vclock.NewSim()
	var prev *Assembly
	for _, p := range protocols {
		asm := New(clk, p)
		if asm.Store == nil || asm.Locks == nil || asm.Mgr.Store != asm.Store || asm.Mgr.Locks != asm.Locks {
			t.Fatalf("%v: the manager is not over the assembly's store and locks", p)
		}
		db, ok := asm.Mgr.DB.(*twopc.ShardedStore)
		if !ok || len(db.Parts) != 1 || db.Parts[0].Store != asm.Store || db.Parts[0].Locks != asm.Locks {
			t.Fatalf("%v: Mgr.DB = %T, want a *twopc.ShardedStore over one partition holding the assembly's store and locks", p, asm.Mgr.DB)
		}
		if asm.Mgr.RestoreDB != nil {
			t.Errorf("%v: a volatile node journals its restores", p)
		}
		cc := asm.CC
		if cc.M != asm.Mgr || cc.Protocol != p || cc.Policy != txn.Wait || len(cc.Parts) != 1 || cc.Parts[0] != db.Parts[0] || len(cc.Links) != 1 || cc.Links[0] != nil {
			t.Errorf("%v: CC is not a link-less wait-die %v ShardedCC over the one partition", p, p)
		}
		if asm.Part != nil || db.Parts[0].Durable() {
			t.Errorf("%v: a volatile assembly has a durable partition", p)
		}
		if prev != nil && (asm.Store == prev.Store || asm.Locks == prev.Locks || asm.Mgr == prev.Mgr || asm.CC == prev.CC) {
			t.Error("two assemblies share a store, lock manager, manager or CC")
		}
		prev = asm
	}
}

// TestNewFleetRoutes checks that a fleet routes keys through the shard map
// when it has one, and through the static partitioner otherwise, in its
// store and in every CC alike.
func TestNewFleetRoutes(t *testing.T) {
	clk := vclock.NewSim()
	route := func(key string) int { return int(key[0]-'0') % 2 }
	plain := NewFleet(clk, 2, route, nil, twopc.MSIA)
	if plain.DB.Map != nil || plain.DB.Clk != nil {
		t.Error("an unmapped fleet's store has a shard map")
	}
	if cc := plain.CC(1, nil); cc.Map != nil || cc.Partitioner("1x") != 1 || cc.Partitioner("0x") != 0 {
		t.Error("an unmapped fleet's CC does not route through the partitioner")
	}
	if plain.DB.Partitioner("3") != 1 {
		t.Error("an unmapped fleet's store does not route through the partitioner")
	}

	smap, err := twopc.NewShardMap([]int{1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	mapped := NewFleet(clk, 2, route, smap, twopc.MSSR)
	if mapped.DB.Map != smap || mapped.DB.Clk != clk {
		t.Fatal("a mapped fleet's store does not hold the shard map and clock")
	}
	cc := mapped.CC(0, nil)
	if cc.Map != smap || cc.Protocol != twopc.MSSR {
		t.Errorf("a mapped fleet's CC = {Map: %v, Protocol: %v}, want the shard map under MS-SR", cc.Map == smap, cc.Protocol)
	}
	for _, key := range []string{"0", "1", "cam/x", "zz"} {
		want := smap.Lookup(key)
		if got := mapped.DB.Partitioner(key); got != want {
			t.Errorf("store routes %q to %d, the shard map to %d", key, got, want)
		}
		if got := cc.Partitioner(key); got != want {
			t.Errorf("CC routes %q to %d, the shard map to %d", key, got, want)
		}
	}
}

// TestNewFleetBindsStack checks that each partition owns a store and lock
// manager of its own, that the manager writes through the fleet's store,
// and that every home's CC shares the manager, partitions and counters.
func TestNewFleetBindsStack(t *testing.T) {
	clk := vclock.NewSim()
	f := NewFleet(clk, 3, twopc.HashPartitioner(3), nil, twopc.MSIA)
	if len(f.Parts) != 3 || f.Mgr.DB != f.DB || f.Stats == nil {
		t.Fatal("the fleet's manager does not write through its sharded store")
	}
	seen := map[any]bool{}
	for i, part := range f.Parts {
		if part.ID != i || f.DB.Parts[i] != part {
			t.Errorf("partition %d is not the store's partition %d", part.ID, i)
		}
		if part.Store == nil || part.Locks == nil || seen[part.Store] || seen[part.Locks] {
			t.Errorf("partition %d shares its store or lock manager", i)
		}
		seen[part.Store], seen[part.Locks] = true, true
	}
	if f.Mgr.RestoreDB != nil {
		t.Error("a fleet journals restores before Journal")
	}
	links := make([]transport.Path, 3)
	a, b := f.CC(0, links), f.CC(2, links)
	if a == b || a.Home != 0 || b.Home != 2 {
		t.Fatalf("CC homes = %d, %d; want two CCs homed 0 and 2", a.Home, b.Home)
	}
	for _, cc := range []*twopc.ShardedCC{a, b} {
		if cc.M != f.Mgr || &cc.Parts[0] != &f.Parts[0] || cc.Stats != f.Stats || cc.Clk != clk {
			t.Errorf("CC homed %d does not share the fleet's manager, partitions and counters", cc.Home)
		}
	}
	f.Journal()
	if js, ok := f.Mgr.RestoreDB.(twopc.JournaledShardedStore); !ok || js.ShardedStore != f.DB {
		t.Errorf("after Journal, RestoreDB = %T, want the journaling wrapper of the fleet's store", f.Mgr.RestoreDB)
	}
}

var protocols = []twopc.Protocol{twopc.MSIA, twopc.MSSR}

// durable opens a durable assembly on a fresh log and closes the log when
// the test ends.
func durable(t *testing.T, clk vclock.Clock, p twopc.Protocol, path string) *Assembly {
	t.Helper()
	asm, res, err := NewDurable(clk, p, path, true)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	if res.Truncated {
		t.Fatalf("log %s had a torn tail", path)
	}
	t.Cleanup(func() { asm.Part.CloseWAL() })
	return asm
}

// TestNewDurableBindsStack checks the durable wiring: the plain sharded
// store for section writes, the journaling one for restores only, and a
// link-less ShardedCC over the one partition, for both protocols.
func TestNewDurableBindsStack(t *testing.T) {
	for _, p := range protocols {
		clk := vclock.NewSim()
		asm := durable(t, clk, p, filepath.Join(t.TempDir(), "edge.wal"))
		if asm.Part == nil || asm.Part.Store != asm.Store || asm.Part.Locks != asm.Locks || !asm.Part.Durable() {
			t.Fatalf("%v: the partition is not the durable owner of the assembly's store and locks", p)
		}
		if asm.Mgr.Store != asm.Store || asm.Mgr.Locks != asm.Locks {
			t.Errorf("%v: the manager's store or locks are not the assembly's", p)
		}
		if db, ok := asm.Mgr.DB.(*twopc.ShardedStore); !ok || len(db.Parts) != 1 || db.Parts[0] != asm.Part {
			t.Errorf("%v: Mgr.DB = %T, want the plain *twopc.ShardedStore over the one partition", p, asm.Mgr.DB)
		}
		if _, ok := asm.Mgr.RestoreDB.(twopc.JournaledShardedStore); !ok {
			t.Errorf("%v: Mgr.RestoreDB = %T, want twopc.JournaledShardedStore", p, asm.Mgr.RestoreDB)
		}
		if cc := asm.CC; cc.M != asm.Mgr || cc.Protocol != p || len(cc.Parts) != 1 || cc.Parts[0] != asm.Part || len(cc.Links) != 1 || cc.Links[0] != nil {
			t.Errorf("%v: CC is not a link-less %v ShardedCC over the one partition", p, p)
		}
	}
}

// writeTxn writes v under every key in section 0 and, when final is set,
// final under the first key in the last section.
func writeTxn(keys []string, v, final int64) *txn.Txn {
	rw := txn.RWSet{Writes: keys}
	return &txn.Txn{
		Name:      "write",
		InitialRW: rw,
		FinalRW:   rw,
		Initial: func(c *txn.Ctx) error {
			for _, k := range keys {
				c.Put(k, store.Int64Value(v))
			}
			return nil
		},
		Final: func(c *txn.Ctx) error {
			if final != 0 {
				c.Put(keys[0], store.Int64Value(final))
			}
			return nil
		},
	}
}

// run executes both sections of tx on asm.
func run(t *testing.T, clk *vclock.Sim, asm *Assembly, tx *txn.Txn) *txn.Instance {
	t.Helper()
	in := asm.Mgr.NewInstance(tx, nil)
	clk.Run(func() {
		if err := asm.CC.RunInitial(in); err != nil {
			t.Errorf("RunInitial: %v", err)
			return
		}
		if err := asm.CC.RunFinal(in); err != nil {
			t.Errorf("RunFinal: %v", err)
		}
	})
	return in
}

func get(st *store.Store, key string) (int64, bool) {
	v, ok := st.Get(key)
	return store.AsInt64(v), ok
}

// A durable assembly opened on an existing log serves the state the log's
// committed sections left, and reports the replay.
func TestDurableReplaysPriorLog(t *testing.T) {
	for _, p := range protocols {
		path := filepath.Join(t.TempDir(), "edge.wal")
		clk := vclock.NewSim()
		first := durable(t, clk, p, path)
		run(t, clk, first, writeTxn([]string{"a", "b"}, 1, 0))
		run(t, clk, first, writeTxn([]string{"b", "c"}, 2, 3))
		if _, err := first.Part.VerifyWAL(); err != nil {
			t.Fatalf("%v: live verify: %v", p, err)
		}
		want := first.Store.Snapshot()
		if err := first.Part.CloseWAL(); err != nil {
			t.Fatal(err)
		}

		second, res, err := NewDurable(vclock.NewSim(), p, path, true)
		if err != nil {
			t.Fatalf("%v: reopen: %v", p, err)
		}
		defer second.Part.CloseWAL()
		if res.Records == 0 || res.Truncated || len(res.InDoubt) != 0 {
			t.Errorf("%v: replay = %d records, torn %v, %d in doubt; want a clean, non-empty replay", p, res.Records, res.Truncated, len(res.InDoubt))
		}
		got := second.Store.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("%v: replayed %d keys, want %d", p, len(got), len(want))
		}
		for k, v := range want {
			if string(got[k]) != string(v) {
				t.Errorf("%v: key %q replayed as %v, want %v", p, k, got[k], v)
			}
		}
		if v, _ := get(second.Store, "c"); v != 2 {
			t.Errorf("%v: c = %d after replay, want 2", p, v)
		}
		if v, _ := get(second.Store, "b"); v != 3 {
			t.Errorf("%v: b = %d after replay, want 3 (the final section's write)", p, v)
		}
		if _, err := second.Part.VerifyWAL(); err != nil {
			t.Errorf("%v: verify after replay: %v", p, err)
		}
	}
}

// records lists the log at path.
func records(t *testing.T, path string) []wal.Record {
	t.Helper()
	var out []wal.Record
	if _, _, err := wal.Replay(path, func(r wal.Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	return out
}

// An MS-SR transaction commits atomically once, at its last boundary: the
// log holds nothing new after section 0, then one put per key it wrote and
// a single commit marker, all of that round. A key it only read (a shared
// lock) logs nothing, though it holds a value.
func TestMSSRLogsWritesAndOneMarker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edge.wal")
	clk := vclock.NewSim()
	asm := durable(t, clk, twopc.MSSR, path)
	run(t, clk, asm, writeTxn([]string{"r"}, 5, 0))
	prior := len(records(t, path))
	tx := writeTxn([]string{"a", "b"}, 1, 7)
	rw := txn.RWSet{Reads: []string{"r"}, Writes: []string{"a", "b"}}
	tx.InitialRW, tx.FinalRW = rw, rw
	initial := tx.Initial
	tx.Initial = func(c *txn.Ctx) error {
		if v, ok := c.Get("r"); !ok || store.AsInt64(v) != 5 {
			t.Errorf("read r = %v, %v; want 5", v, ok)
		}
		return initial(c)
	}
	in := asm.Mgr.NewInstance(tx, nil)
	clk.Run(func() {
		if err := asm.CC.RunInitial(in); err != nil {
			t.Fatalf("RunInitial: %v", err)
		}
		if recs := records(t, path)[prior:]; len(recs) != 0 {
			t.Errorf("MS-SR logged %d records at the initial commit, want 0: %+v", len(recs), recs)
		}
		if err := asm.CC.RunFinal(in); err != nil {
			t.Fatalf("RunFinal: %v", err)
		}
	})
	recs := records(t, path)[prior:]
	want := []wal.Record{
		{Op: wal.OpPut, Key: "a", Value: store.Int64Value(7)},
		{Op: wal.OpPut, Key: "b", Value: store.Int64Value(1)},
		{Op: wal.OpCommit},
	}
	if len(recs) != len(want) {
		t.Fatalf("log = %+v, want %d records: one put per written key and one marker", recs, len(want))
	}
	last := uint8(in.CommittedSections() - 1) // MS-SR's one round is the last section's
	for i, w := range want {
		r := recs[i]
		if r.Op != w.Op || r.Key != w.Key || string(r.Value) != string(w.Value) || r.Txn != uint64(in.ID) || r.Round != last {
			t.Errorf("record %d = %+v, want %+v of txn %d round %d", i, r, w, in.ID, last)
		}
	}
}

// A crash image of a durable edge holds whole sections only: one taken in
// the middle of a section body, after the first of its two writes, holds
// neither write, and one taken after the commit holds both — under both
// protocols, on the assembly croesus edge runs.
func TestCrashImageHoldsWholeSections(t *testing.T) {
	for _, p := range protocols {
		path := filepath.Join(t.TempDir(), "edge.wal")
		clk := vclock.NewSim()
		asm := durable(t, clk, p, path)
		image := func() (a, b bool) {
			res, err := wal.Recover(path)
			if err != nil {
				t.Fatalf("%v: crash image: %v", p, err)
			}
			_, a = res.Store.Get("a")
			_, b = res.Store.Get("b")
			return a, b
		}
		var midA, midB bool
		rw := txn.RWSet{Writes: []string{"a", "b"}}
		tx := &txn.Txn{
			Name:      "pair",
			InitialRW: rw,
			FinalRW:   rw,
			Initial: func(c *txn.Ctx) error {
				c.Put("a", store.Int64Value(1))
				midA, midB = image()
				c.Put("b", store.Int64Value(1))
				return nil
			},
			Final: func(c *txn.Ctx) error { return nil },
		}
		run(t, clk, asm, tx)
		if midA || midB {
			t.Errorf("%v: image mid-section holds a=%v b=%v, want neither", p, midA, midB)
		}
		if a, b := image(); !a || !b {
			t.Errorf("%v: image after the commit holds a=%v b=%v, want both", p, a, b)
		}
	}
}

// An initial section whose body fails is aborted with none of its writes
// left behind, under every protocol an edge can run: the store keeps the
// committed value of a key it overwrote and loses a key it created, its
// locks are free, and a durable edge's log still matches the store.
func TestAbortedSectionLeavesNoWrites(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		durable bool
		p       twopc.Protocol
	}{
		{"MS-IA", false, twopc.MSIA},
		{"MS-SR", false, twopc.MSSR},
		{"durable MS-IA", true, twopc.MSIA},
		{"durable MS-SR", true, twopc.MSSR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewSim()
			asm := New(clk, tc.p)
			if tc.durable {
				asm = durable(t, clk, tc.p, filepath.Join(t.TempDir(), "edge.wal"))
			}
			run(t, clk, asm, writeTxn([]string{"k"}, 1, 0))
			rw := txn.RWSet{Writes: []string{"k", "new"}}
			in := asm.Mgr.NewInstance(&txn.Txn{
				Name:      "failing",
				InitialRW: rw,
				FinalRW:   rw,
				Initial: func(c *txn.Ctx) error {
					c.Put("k", store.Int64Value(2))
					c.Put("new", store.Int64Value(2))
					c.Put("k", store.Int64Value(3))
					return boom
				},
				Final: func(c *txn.Ctx) error { return nil },
			}, nil)
			clk.Run(func() {
				if err := asm.CC.RunInitial(in); !errors.Is(err, boom) {
					t.Errorf("RunInitial = %v, want boom", err)
				}
			})
			if s := in.State(); s != txn.StateAborted {
				t.Errorf("state = %v, want aborted", s)
			}
			if v, ok := get(asm.Store, "k"); !ok || v != 1 {
				t.Errorf("k = %d (present %v) after the abort, want the committed 1", v, ok)
			}
			if _, ok := asm.Store.Get("new"); ok {
				t.Error("the aborted section's new key survived")
			}
			if len(in.Apologies()) != 0 {
				t.Errorf("an abort apologized: %v", in.Apologies())
			}
			if st := asm.Mgr.Stats(); st.Aborts != 1 || st.Retractions != 0 {
				t.Errorf("stats = %+v, want one abort and no retraction", st)
			}
			if !asm.Locks.TryAcquireAll(9999, rw.Requests()) {
				t.Error("the aborted section's locks are still held")
			}
			if tc.durable {
				if _, err := asm.Part.VerifyWAL(); err != nil {
					t.Errorf("log disagrees with the store after the abort: %v", err)
				}
			}
		})
	}
}

// A later section whose body fails still commits its boundary (the
// multi-stage contract), so a durable edge logs what it wrote: the log
// keeps matching the store.
func TestFailedLaterSectionIsLogged(t *testing.T) {
	boom := errors.New("boom")
	for _, p := range protocols {
		clk := vclock.NewSim()
		asm := durable(t, clk, p, filepath.Join(t.TempDir(), "edge.wal"))
		tx := writeTxn([]string{"k"}, 1, 0)
		tx.Final = func(c *txn.Ctx) error {
			c.Put("k", store.Int64Value(2))
			return boom
		}
		in := asm.Mgr.NewInstance(tx, nil)
		clk.Run(func() {
			if err := asm.CC.RunInitial(in); err != nil {
				t.Errorf("%v: RunInitial: %v", p, err)
			}
			if err := asm.CC.RunFinal(in); !errors.Is(err, boom) {
				t.Errorf("%v: RunFinal = %v, want boom", p, err)
			}
		})
		if s := in.State(); s != txn.StateFinalCommitted {
			t.Errorf("%v: state = %v, want final-committed", p, s)
		}
		if _, err := asm.Part.VerifyWAL(); err != nil {
			t.Errorf("%v: log disagrees with the store: %v", p, err)
		}
	}
}

// The durable edge's transaction allocates no more than the volatile
// one's: logging a section as one batch must not cost allocations the
// per-write journal did not. Race builds allow slack (see race_test.go):
// the lock manager's pool makes both counts noisy there.
func TestDurableTxnAllocs(t *testing.T) {
	allocs := func(asm *Assembly) float64 {
		src := core.NewWorkloadSource(500, 7)
		const runs = 200
		ins := make([]*txn.Instance, runs+1) // AllocsPerRun adds one warm-up call
		for i := range ins {
			d := detect.Detection{Label: "dog", Box: video.Rect{X: float64(i) / 1000, Y: 0.3, W: 0.1, H: 0.1}}
			ins[i] = asm.Mgr.NewInstance(src.TxnFor(i, d), core.InitialInput{FrameIndex: i, Trigger: d})
			ins[i].FinalIn = core.FinalInput{FrameIndex: i, Case: core.MatchCorrect}
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			in := ins[next]
			next++
			if err := asm.CC.RunInitial(in); err != nil {
				t.Fatalf("RunInitial: %v", err)
			}
			if err := asm.CC.RunFinal(in); err != nil {
				t.Fatalf("RunFinal: %v", err)
			}
		})
	}
	for _, p := range protocols {
		clk := vclock.NewScaledReal(1)
		volatile := allocs(New(clk, p))
		dur := allocs(durable(t, clk, p, filepath.Join(t.TempDir(), "edge.wal")))
		t.Logf("%v: volatile %v, durable %v allocations per transaction", p, volatile, dur)
		if dur > volatile+raceAllocSlack {
			t.Errorf("%v: a durable transaction allocates %v times, a volatile one %v", p, dur, volatile)
		}
	}
}

// Sessions of a durable edge commit at once on a real clock: they share
// the partition's lock, its redo buffer and the log. Every transaction
// finishes, and the log replays to exactly the live store.
func TestDurableConcurrentCommits(t *testing.T) {
	for _, p := range protocols {
		clk := vclock.NewScaledReal(1)
		asm := durable(t, clk, p, filepath.Join(t.TempDir(), "edge.wal"))
		src := core.NewWorkloadSource(20, 7) // a small key space, so sessions contend
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					frame := g*1000 + i
					d := detect.Detection{Label: "dog", Box: video.Rect{X: 0.1, Y: 0.2, W: 0.1, H: 0.1}}
					in := asm.Mgr.NewInstance(src.TxnFor(frame, d), core.InitialInput{FrameIndex: frame, Trigger: d})
					in.FinalIn = core.FinalInput{FrameIndex: frame, Case: core.MatchCase(i % 4)}
					switch err := asm.CC.RunInitial(in); {
					case errors.Is(err, txn.ErrAborted):
						continue // wait-die: the younger transaction dies
					case err != nil:
						t.Errorf("%v: RunInitial: %v", p, err)
						return
					}
					if err := asm.CC.RunFinal(in); err != nil && !errors.Is(err, txn.ErrRetracted) {
						t.Errorf("%v: RunFinal: %v", p, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		st := asm.Mgr.Stats()
		if open := st.InitialCommits - st.FinalCommits; st.InitialCommits == 0 || open < 0 || open > st.Retractions {
			t.Errorf("%v: %d initial commits, %d final, %d retractions; want each initial commit finalized or retracted", p, st.InitialCommits, st.FinalCommits, st.Retractions)
		}
		if _, err := asm.Part.VerifyWAL(); err != nil {
			t.Errorf("%v: log disagrees with the store: %v", p, err)
		}
	}
}
