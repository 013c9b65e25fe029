package txn

import (
	"errors"
	"strings"
	"testing"

	"croesus/internal/lock"
	"croesus/internal/store"
	"croesus/internal/vclock"
)

func newTestManager(clk vclock.Clock) *Manager {
	return NewManager(clk, store.New(), lock.NewManager(clk))
}

// transferTxn moves tokens between players in the initial section; the
// final section receives the corrected recipient and fixes errors — the AR
// game of §4.4.
func transferTxn(from, to string, amount int64, correctTo *string) *Txn {
	keys := []string{"tok:A", "tok:B", "tok:C", "tok:D"}
	return &Txn{
		Name:      "transfer-" + from + "-" + to,
		InitialRW: RWSet{Writes: keys},
		FinalRW:   RWSet{Writes: keys},
		Initial: func(c *Ctx) error {
			fv, _ := c.Get("tok:" + from)
			tv, _ := c.Get("tok:" + to)
			c.Put("tok:"+from, store.Int64Value(store.AsInt64(fv)-amount))
			c.Put("tok:"+to, store.Int64Value(store.AsInt64(tv)+amount))
			return nil
		},
		Final: func(c *Ctx) error {
			if correctTo == nil || *correctTo == to {
				return nil // guess was right
			}
			// Erroneous recipient: retract this transfer and its
			// dependents, then replay toward the right player.
			c.Retract("recipient was " + to + ", should be " + *correctTo)
			fv, _ := c.Get("tok:" + from)
			tv, _ := c.Get("tok:" + *correctTo)
			c.Put("tok:"+from, store.Int64Value(store.AsInt64(fv)-amount))
			c.Put("tok:"+*correctTo, store.Int64Value(store.AsInt64(tv)+amount))
			return nil
		},
	}
}

func seedTokens(m *Manager) {
	m.Store.Put("tok:A", store.Int64Value(50))
	m.Store.Put("tok:B", store.Int64Value(10))
	m.Store.Put("tok:C", store.Int64Value(0))
	m.Store.Put("tok:D", store.Int64Value(0))
}

func balance(m *Manager, p string) int64 {
	v, _ := m.Store.Get("tok:" + p)
	return store.AsInt64(v)
}

// TestRetractionCascade replays the paper's token scenario: t1 transfers
// A→B (50), then t2 B→C (10) and t3 B→C (50) depend on it. t1's final
// section learns the true recipient was D: retracting t1 must also retract
// t2 and t3, then replay A→D.
func TestRetractionCascade(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	cc := &MSIA{M: m}
	seedTokens(m)

	correctD := "D"
	t1 := m.NewInstance(transferTxn("A", "B", 50, &correctD), nil)
	t2 := m.NewInstance(transferTxn("B", "C", 10, nil), nil)
	t3 := m.NewInstance(transferTxn("B", "C", 50, nil), nil)

	s.Run(func() {
		mustRun(t, cc, t1, t2, t3) // initial sections in order
		// Finals of t2 and t3 commit first (their inputs were correct).
		if err := cc.RunFinal(t2); err != nil {
			t.Fatalf("t2 final: %v", err)
		}
		if err := cc.RunFinal(t3); err != nil {
			t.Fatalf("t3 final: %v", err)
		}
		// t1's final discovers the error and retracts; ErrRetracted is the
		// expected terminal outcome.
		if err := cc.RunFinal(t1); err != nil && !errors.Is(err, ErrRetracted) {
			t.Fatalf("t1 final: %v", err)
		}
	})

	if got := balance(m, "A"); got != 0 {
		t.Errorf("A = %d, want 0", got)
	}
	if got := balance(m, "B"); got != 10 {
		t.Errorf("B = %d, want 10 (original balance restored)", got)
	}
	if got := balance(m, "C"); got != 0 {
		t.Errorf("C = %d, want 0 (dependent transfers retracted)", got)
	}
	if got := balance(m, "D"); got != 50 {
		t.Errorf("D = %d, want 50 (replayed to correct recipient)", got)
	}
	if t2.State() != StateRetracted || t3.State() != StateRetracted {
		t.Errorf("dependents not retracted: t2=%v t3=%v", t2.State(), t3.State())
	}
	st := m.Stats()
	if st.Retractions != 3 {
		t.Errorf("retractions = %d, want 3", st.Retractions)
	}
	found := false
	for _, a := range t3.Apologies() {
		if strings.Contains(a.Reason, "cascaded") {
			found = true
		}
	}
	if !found {
		t.Error("t3 missing cascade apology")
	}
}

func mustRun(t *testing.T, cc CC, insts ...*Instance) {
	t.Helper()
	for _, in := range insts {
		if err := cc.RunInitial(in); err != nil {
			t.Fatalf("initial of %s: %v", in.T.Name, err)
		}
	}
}

// TestRetractionExactRollback: retracting a lone transaction restores the
// precise before-state even with interleaved writes to other keys.
func TestRetractionExactRollback(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	cc := &MSIA{M: m}
	m.Store.Put("a", store.Int64Value(1))
	m.Store.Put("b", store.Int64Value(2))
	snapshotA, snapshotB := balanceKey(m, "a"), balanceKey(m, "b")

	tx := &Txn{
		Name:      "writer",
		InitialRW: RWSet{Writes: []string{"a", "b", "c"}},
		FinalRW:   RWSet{},
		Initial: func(c *Ctx) error {
			c.Put("a", store.Int64Value(100))
			c.Put("b", store.Int64Value(200))
			c.Put("c", store.Int64Value(300)) // created key
			c.Put("a", store.Int64Value(101)) // double write
			c.Delete("b")
			return nil
		},
		Final: func(c *Ctx) error { c.Retract("erroneous trigger"); return nil },
	}
	inst := m.NewInstance(tx, nil)
	s.Run(func() {
		if err := cc.RunInitial(inst); err != nil {
			t.Fatalf("initial: %v", err)
		}
		if err := cc.RunFinal(inst); !errors.Is(err, ErrRetracted) {
			t.Fatalf("final = %v, want ErrRetracted", err)
		}
	})
	if got := balanceKey(m, "a"); got != snapshotA {
		t.Errorf("a = %d, want %d", got, snapshotA)
	}
	if got := balanceKey(m, "b"); got != snapshotB {
		t.Errorf("b = %d, want %d", got, snapshotB)
	}
	if _, ok := m.Store.Get("c"); ok {
		t.Error("created key c survived retraction")
	}
	if inst.State() != StateRetracted {
		t.Errorf("state = %v", inst.State())
	}
}

func balanceKey(m *Manager, k string) int64 {
	v, _ := m.Store.Get(k)
	return store.AsInt64(v)
}

// TestRetractionSkipsIndependents: transactions that did not touch the
// retracted transaction's keys must be unaffected.
func TestRetractionSkipsIndependents(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	cc := &MSIA{M: m}

	victim := m.NewInstance(&Txn{
		Name:      "victim",
		InitialRW: RWSet{Writes: []string{"v"}},
		FinalRW:   RWSet{},
		Initial:   func(c *Ctx) error { c.Put("v", store.Int64Value(1)); return nil },
		Final:     func(c *Ctx) error { c.Retract("bad input"); return nil },
	}, nil)
	bystander := m.NewInstance(&Txn{
		Name:      "bystander",
		InitialRW: RWSet{Writes: []string{"w"}},
		FinalRW:   RWSet{},
		Initial:   func(c *Ctx) error { c.Put("w", store.Int64Value(7)); return nil },
		Final:     func(c *Ctx) error { return nil },
	}, nil)
	s.Run(func() {
		mustRun(t, cc, victim, bystander)
		cc.RunFinal(bystander)
		cc.RunFinal(victim)
	})
	if _, ok := m.Store.Get("v"); ok {
		t.Error("v survived retraction")
	}
	if got := balanceKey(m, "w"); got != 7 {
		t.Errorf("bystander write lost: w = %d", got)
	}
	if bystander.State() != StateFinalCommitted {
		t.Errorf("bystander state = %v", bystander.State())
	}
}

// TestReadOnlyDependentGetsApologyWithoutUndo: a reader of tainted data is
// retracted (apology) but has nothing to undo.
func TestReadOnlyDependentGetsApologyWithoutUndo(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	cc := &MSIA{M: m}

	writer := m.NewInstance(&Txn{
		Name:      "writer",
		InitialRW: RWSet{Writes: []string{"k"}},
		FinalRW:   RWSet{},
		Initial:   func(c *Ctx) error { c.Put("k", store.Int64Value(13)); return nil },
		Final:     func(c *Ctx) error { c.Retract("wrong label"); return nil },
	}, nil)
	var observed int64
	reader := m.NewInstance(&Txn{
		Name:      "reader",
		InitialRW: RWSet{Reads: []string{"k"}},
		FinalRW:   RWSet{},
		Initial: func(c *Ctx) error {
			v, _ := c.Get("k")
			observed = store.AsInt64(v)
			return nil
		},
		Final: func(c *Ctx) error { return nil },
	}, nil)
	s.Run(func() {
		mustRun(t, cc, writer, reader)
		cc.RunFinal(reader)
		cc.RunFinal(writer)
	})
	if observed != 13 {
		t.Fatalf("reader observed %d", observed)
	}
	if reader.State() != StateRetracted {
		t.Errorf("reader state = %v, want retracted (it consumed tainted data)", reader.State())
	}
	if len(reader.Apologies()) == 0 {
		t.Error("reader received no apology")
	}
}

func TestApologizeCountsStats(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	cc := &MSIA{M: m}
	inst := m.NewInstance(&Txn{
		Name:      "apologizer",
		InitialRW: RWSet{},
		FinalRW:   RWSet{},
		Initial:   func(c *Ctx) error { return nil },
		Final:     func(c *Ctx) error { c.Apologize("sorry"); return nil },
	}, nil)
	s.Run(func() {
		cc.RunInitial(inst)
		cc.RunFinal(inst)
	})
	if st := m.Stats(); st.Apologies != 1 {
		t.Errorf("apologies = %d", st.Apologies)
	}
	if a := inst.Apologies(); len(a) != 1 || a[0].Reason != "sorry" {
		t.Errorf("apologies = %v", a)
	}
	if got := a0String(inst); !strings.Contains(got, "apologizer") {
		t.Errorf("apology string = %q", got)
	}
}

func a0String(in *Instance) string { return in.Apologies()[0].String() }

// TestMSSRReleasesOnceAfterRetraction: the reference MS-SR holds every
// section's locks from section 0, and a caller keeps running the later
// sections of a transaction that was retracted mid-graph (the graph
// executor does). Whether a cascade retracted it between boundaries or its
// own middle section did, each later section returns ErrRetracted and the
// locks are released exactly once.
func TestMSSRReleasesOnceAfterRetraction(t *testing.T) {
	for _, selfRetract := range []bool{false, true} {
		s := vclock.NewSim()
		m := newTestManager(s)
		cc := &MSSR{M: m, Policy: Wait}
		body := func(c *Ctx) error { return nil }
		tx := &Txn{Name: "three", Sections: []SectionSpec{
			{RW: RWSet{Writes: []string{"a"}}, Body: body},
			{RW: RWSet{Writes: []string{"b"}}, Body: func(c *Ctx) error {
				if selfRetract {
					c.Retract("erroneous")
				}
				return nil
			}},
			{RW: RWSet{Writes: []string{"c"}}, Body: body},
		}}
		in := m.NewInstance(tx, nil)
		s.Run(func() {
			if err := cc.RunSection(in, 0); err != nil {
				t.Fatalf("selfRetract=%v: section 0: %v", selfRetract, err)
			}
			if !selfRetract {
				m.Retract(in, "cascade")
			}
			for k := 1; k <= 2; k++ {
				if err := cc.RunSection(in, k); !errors.Is(err, ErrRetracted) {
					t.Errorf("selfRetract=%v: section %d = %v, want ErrRetracted", selfRetract, k, err)
				}
			}
		})
		if n := m.Locks.Outstanding(); n != 0 {
			t.Errorf("selfRetract=%v: %d locks leaked", selfRetract, n)
		}
	}
}
