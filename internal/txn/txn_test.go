// The protocol tests run over the concurrency control every edge commits
// through: node.New's one-partition twopc.ShardedCC, under both protocols.
package txn_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"croesus/internal/lock"
	"croesus/internal/node"
	"croesus/internal/store"
	"croesus/internal/twopc"
	. "croesus/internal/txn"
	"croesus/internal/vclock"
)

var protocols = []twopc.Protocol{twopc.MSIA, twopc.MSSR}

// newEdge assembles a standalone edge on clk under p and returns its
// manager and CC.
func newEdge(clk vclock.Clock, p twopc.Protocol) (*Manager, *twopc.ShardedCC) {
	asm := node.New(clk, p)
	return asm.Mgr, asm.CC
}

// rivalCC returns a second CC over cc's partitions and manager, under
// protocol p and policy — a concurrent client of the same edge that
// acquires differently.
func rivalCC(cc *twopc.ShardedCC, p twopc.Protocol, policy Policy) *twopc.ShardedCC {
	return &twopc.ShardedCC{Clk: cc.Clk, M: cc.M, Home: cc.Home, Parts: cc.Parts, Links: cc.Links,
		Partitioner: cc.Partitioner, Protocol: p, Policy: policy, Stats: cc.Stats}
}

// incrementTxn reads x in the initial section and writes x+1 in the final
// section — the §4.2 anomaly scenario.
func incrementTxn(captured *int64) *Txn {
	return &Txn{
		Name:      "increment",
		InitialRW: RWSet{Reads: []string{"x"}},
		FinalRW:   RWSet{Writes: []string{"x"}},
		Initial: func(c *Ctx) error {
			v, _ := c.Get("x")
			*captured = store.AsInt64(v)
			return nil
		},
		Final: func(c *Ctx) error {
			c.Put("x", store.Int64Value(*captured+1))
			return nil
		},
	}
}

func TestMSIASingleTransactionLifecycle(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSIA)
	var captured int64
	inst := m.NewInstance(incrementTxn(&captured), nil)
	s.Run(func() {
		if err := cc.RunInitial(inst); err != nil {
			t.Errorf("RunInitial: %v", err)
		}
		if got := inst.State(); got != StateInitialCommitted {
			t.Errorf("state after initial = %v", got)
		}
		if err := cc.RunFinal(inst); err != nil {
			t.Errorf("RunFinal: %v", err)
		}
	})
	if got := inst.State(); got != StateFinalCommitted {
		t.Errorf("state after final = %v", got)
	}
	v, _ := m.Store.Get("x")
	if store.AsInt64(v) != 1 {
		t.Errorf("x = %d, want 1", store.AsInt64(v))
	}
	st := m.Stats()
	if st.InitialCommits != 1 || st.FinalCommits != 1 || st.Aborts != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFinalBeforeInitialRejected(t *testing.T) {
	for _, p := range protocols {
		s := vclock.NewSim()
		m, cc := newEdge(s, p)
		var captured int64
		inst := m.NewInstance(incrementTxn(&captured), nil)
		s.Run(func() {
			if err := cc.RunFinal(inst); err == nil {
				t.Errorf("%s: RunFinal before RunInitial succeeded", p)
			}
		})
	}
}

func TestDoubleInitialRejected(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSIA)
	var captured int64
	inst := m.NewInstance(incrementTxn(&captured), nil)
	s.Run(func() {
		if err := cc.RunInitial(inst); err != nil {
			t.Fatalf("first RunInitial: %v", err)
		}
		if err := cc.RunInitial(inst); err == nil {
			t.Error("second RunInitial succeeded")
		}
	})
}

// runInitialWaitDie keeps restarting a transaction (fresh instance, fresh
// timestamp) until wait-die lets it through — the classic restart loop of
// timestamp-ordered deadlock prevention.
func runInitialWaitDie(s *vclock.Sim, m *Manager, cc CC, mk func() *Txn) *Instance {
	for {
		inst := m.NewInstance(mk(), nil)
		err := cc.RunInitial(inst)
		if err == nil {
			return inst
		}
		if !errors.Is(err, ErrAborted) {
			panic(err)
		}
		s.Sleep(5 * time.Millisecond)
	}
}

// TestMSSRPreventsLostUpdate reproduces the §4.2 example: two increment
// transactions whose initial sections read x and final sections write x+1.
// Under MS-SR the sections serialize back-to-back (wait-die restarts the
// younger transaction when needed), so x ends at exactly 2.
func TestMSSRPreventsLostUpdate(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSSR)
	m.Store.Put("x", store.Int64Value(0))

	for i := 0; i < 2; i++ {
		s.Go(func() {
			var captured int64
			inst := runInitialWaitDie(s, m, cc, func() *Txn { return incrementTxn(&captured) })
			s.Sleep(100 * time.Millisecond) // the cloud round-trip
			if err := cc.RunFinal(inst); err != nil {
				t.Errorf("RunFinal: %v", err)
			}
		})
	}
	s.Wait()
	v, _ := m.Store.Get("x")
	if store.AsInt64(v) != 2 {
		t.Errorf("x = %d, want 2 (lost update under MS-SR)", store.AsInt64(v))
	}
}

// TestMSIAAllowsAnomalyThenApologyFixes shows the flip side: MS-IA permits
// the interleaving (both initial sections read 0), and the final sections'
// invariant check repairs the damage — apply-then-check.
func TestMSIAAllowsAnomalyThenApologyFixes(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSIA)
	m.Store.Put("x", store.Int64Value(0))

	mkTxn := func() *Txn {
		var captured int64
		return &Txn{
			Name:      "increment-checked",
			InitialRW: RWSet{Reads: []string{"x"}},
			FinalRW:   RWSet{Reads: []string{"x"}, Writes: []string{"x"}},
			Initial: func(c *Ctx) error {
				v, _ := c.Get("x")
				captured = store.AsInt64(v)
				return nil
			},
			Final: func(c *Ctx) error {
				// Invariant-confluent merge: re-read under the final
				// section's lock instead of trusting the stale guess.
				v, _ := c.Get("x")
				cur := store.AsInt64(v)
				if cur != captured {
					c.Apologize(fmt.Sprintf("guess %d was stale, merged on %d", captured, cur))
				}
				c.Put("x", store.Int64Value(cur+1))
				return nil
			},
		}
	}

	barrier := s.NewGate()
	insts := make([]*Instance, 2)
	for i := 0; i < 2; i++ {
		i := i
		insts[i] = m.NewInstance(mkTxn(), nil)
		s.Go(func() {
			if err := cc.RunInitial(insts[i]); err != nil {
				t.Errorf("RunInitial: %v", err)
			}
			if i == 0 {
				barrier.Wait() // both initials run before any final
			} else {
				barrier.Fire()
			}
			s.Sleep(time.Duration(i+1) * 10 * time.Millisecond)
			if err := cc.RunFinal(insts[i]); err != nil {
				t.Errorf("RunFinal: %v", err)
			}
		})
	}
	s.Wait()
	v, _ := m.Store.Get("x")
	if store.AsInt64(v) != 2 {
		t.Errorf("x = %d, want 2 (merge function must repair the anomaly)", store.AsInt64(v))
	}
}

func TestMSSRNoWaitAborts(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSSR)
	cc.Policy = NoWait
	body := &Txn{
		Name:      "w",
		InitialRW: RWSet{Writes: []string{"hot"}},
		FinalRW:   RWSet{},
		Initial:   func(c *Ctx) error { c.Put("hot", nil); return nil },
		Final:     func(c *Ctx) error { return nil },
	}
	first := m.NewInstance(body, nil)
	second := m.NewInstance(body, nil)
	s.Run(func() {
		if err := cc.RunInitial(first); err != nil {
			t.Fatalf("first RunInitial: %v", err)
		}
		// first still holds the lock (until its final commits).
		if err := cc.RunInitial(second); !errors.Is(err, ErrAborted) {
			t.Fatalf("second RunInitial = %v, want ErrAborted", err)
		}
		if second.State() != StateAborted {
			t.Errorf("second state = %v", second.State())
		}
		if err := cc.RunFinal(first); err != nil {
			t.Fatalf("first RunFinal: %v", err)
		}
		// Lock released: a third attempt succeeds.
		third := m.NewInstance(body, nil)
		if err := cc.RunInitial(third); err != nil {
			t.Fatalf("third RunInitial after release: %v", err)
		}
		if err := cc.RunFinal(third); err != nil {
			t.Fatalf("third RunFinal: %v", err)
		}
	})
	if st := m.Stats(); st.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", st.Aborts)
	}
}

// TestMSSRFinalLocksAcquiredBeforeInitialCommit: under NoWait, a conflict on
// a key only the FINAL section uses must abort the initial section — the
// defining cost of Algorithm 1.
func TestMSSRFinalLocksAcquiredBeforeInitialCommit(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSSR)
	cc.Policy = NoWait
	blocker := m.NewInstance(&Txn{
		Name:      "blocker",
		InitialRW: RWSet{Writes: []string{"finalkey"}},
		FinalRW:   RWSet{},
		Initial:   func(c *Ctx) error { return nil },
		Final:     func(c *Ctx) error { return nil },
	}, nil)
	victim := m.NewInstance(&Txn{
		Name:      "victim",
		InitialRW: RWSet{Reads: []string{"other"}},
		FinalRW:   RWSet{Writes: []string{"finalkey"}},
		Initial:   func(c *Ctx) error { return nil },
		Final:     func(c *Ctx) error { c.Put("finalkey", nil); return nil },
	}, nil)
	s.Run(func() {
		if err := cc.RunInitial(blocker); err != nil {
			t.Fatalf("blocker: %v", err)
		}
		if err := cc.RunInitial(victim); !errors.Is(err, ErrAborted) {
			t.Fatalf("victim = %v, want ErrAborted on final-section lock", err)
		}
	})
}

func TestMSSRUpgradeKeyInBothSections(t *testing.T) {
	// A key read by the initial section and written by the final section
	// must be locked exclusively from the start and released exactly once.
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSSR)
	cc.Policy = NoWait
	tx := &Txn{
		Name:      "upgrade",
		InitialRW: RWSet{Reads: []string{"k"}},
		FinalRW:   RWSet{Writes: []string{"k"}},
		Initial:   func(c *Ctx) error { c.Get("k"); return nil },
		Final:     func(c *Ctx) error { c.Put("k", nil); return nil },
	}
	s.Run(func() {
		for i := 0; i < 3; i++ {
			inst := m.NewInstance(tx, nil)
			if err := cc.RunInitial(inst); err != nil {
				t.Fatalf("iteration %d RunInitial: %v", i, err)
			}
			if err := cc.RunFinal(inst); err != nil {
				t.Fatalf("iteration %d RunFinal: %v", i, err)
			}
		}
	})
}

func TestInitialSectionErrorAborts(t *testing.T) {
	s := vclock.NewSim()
	boom := errors.New("boom")
	for _, p := range protocols {
		m, cc := newEdge(s, p)
		inst := m.NewInstance(&Txn{
			Name:      "failing",
			InitialRW: RWSet{Writes: []string{"k"}},
			FinalRW:   RWSet{},
			Initial:   func(c *Ctx) error { return boom },
			Final:     func(c *Ctx) error { return nil },
		}, nil)
		s.Run(func() {
			if err := cc.RunInitial(inst); !errors.Is(err, boom) {
				t.Errorf("%s: err = %v, want boom", p, err)
			}
		})
		if inst.State() != StateAborted {
			t.Errorf("%s: state = %v", p, inst.State())
		}
		// Locks must be free afterwards.
		if !m.Locks.TryAcquire(9999, "k", lock.Exclusive) {
			t.Errorf("%s: lock leaked after abort", p)
		}
		m.Locks.Release(9999, "k")
	}
}

func TestStrictRWSetEnforcement(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSIA)
	inst := m.NewInstance(&Txn{
		Name:      "rogue",
		InitialRW: RWSet{Reads: []string{"a"}},
		FinalRW:   RWSet{},
		Initial:   func(c *Ctx) error { c.Put("undeclared", nil); return nil },
		Final:     func(c *Ctx) error { return nil },
	}, nil)
	s.Run(func() {
		defer func() {
			if recover() == nil {
				t.Error("undeclared write did not panic")
			}
		}()
		cc.RunInitial(inst)
	})
}

func TestWriteDeclaredKeyAllowsRead(t *testing.T) {
	// A key in Writes is implicitly readable (canRead falls through).
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSIA)
	inst := m.NewInstance(&Txn{
		Name:      "rw",
		InitialRW: RWSet{Writes: []string{"k"}},
		FinalRW:   RWSet{},
		Initial: func(c *Ctx) error {
			c.Get("k")
			c.Put("k", store.Int64Value(1))
			c.Delete("k")
			return nil
		},
		Final: func(c *Ctx) error { return nil },
	}, nil)
	s.Run(func() {
		if err := cc.RunInitial(inst); err != nil {
			t.Errorf("RunInitial: %v", err)
		}
	})
}

func TestHistoryOrdering(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSSR)
	m.RecordHistory()
	var firstID, secondID ID
	s.Go(func() {
		var captured int64
		inst := runInitialWaitDie(s, m, cc, func() *Txn { return incrementTxn(&captured) })
		firstID = inst.ID
		s.Sleep(50 * time.Millisecond)
		cc.RunFinal(inst)
	})
	s.Go(func() {
		s.Sleep(time.Millisecond) // the first transaction initial-commits first
		var captured int64
		inst := runInitialWaitDie(s, m, cc, func() *Txn { return incrementTxn(&captured) })
		secondID = inst.ID
		s.Sleep(50 * time.Millisecond)
		cc.RunFinal(inst)
	})
	s.Wait()
	// MS-SR on conflicting increments: the first transaction's final must
	// commit before the second's initial (guarantee (b): sf_k conflicts
	// with si_j ⇒ sf_k <h si_j). Wait-die restarts leave aborted initial
	// attempts out of the commit history.
	pos := map[string]int{}
	for i, e := range m.History() {
		pos[fmt.Sprintf("%d-%s", e.Txn, e.Stage)] = i
	}
	key := func(id ID, st Stage) string { return fmt.Sprintf("%d-%s", id, st) }
	if !(pos[key(firstID, StageInitial)] < pos[key(firstID, StageFinal)] &&
		pos[key(firstID, StageFinal)] < pos[key(secondID, StageInitial)] &&
		pos[key(secondID, StageInitial)] < pos[key(secondID, StageFinal)]) {
		t.Errorf("MS-SR ordering violated: first=%d second=%d history=%v", firstID, secondID, m.History())
	}
}

func TestLockLeakFreedomAfterWorkload(t *testing.T) {
	// After a mix of commits, aborts and retractions, every lock must be
	// released: a fresh owner can grab any touched key immediately.
	s := vclock.NewSim()
	m, msia := newEdge(s, twopc.MSIA)
	mssr := rivalCC(msia, twopc.MSSR, NoWait)
	keys := []string{"a", "b", "c", "d"}
	s.Run(func() {
		for i := 0; i < 30; i++ {
			tx := &Txn{
				Name:      "mix",
				InitialRW: RWSet{Writes: []string{keys[i%4], keys[(i+1)%4]}},
				FinalRW:   RWSet{Writes: []string{keys[(i+2)%4]}},
				Initial:   func(c *Ctx) error { return nil },
				Final:     func(c *Ctx) error { return nil },
			}
			inst := m.NewInstance(tx, nil)
			var cc CC = msia
			if i%2 == 0 {
				cc = mssr
			}
			if err := cc.RunInitial(inst); err == nil {
				cc.RunFinal(inst)
				if i%5 == 0 {
					m.Retract(inst, "test retraction")
				}
			}
		}
	})
	for _, k := range keys {
		if !m.Locks.TryAcquire(77777, k, lock.Exclusive) {
			t.Errorf("lock %q leaked", k)
		} else {
			m.Locks.Release(77777, k)
		}
	}
}
