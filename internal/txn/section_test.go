package txn_test

import (
	"errors"
	"strings"
	"testing"

	"croesus/internal/store"
	"croesus/internal/twopc"
	. "croesus/internal/txn"
	"croesus/internal/vclock"
)

// threeSectionTxn writes a distinct key per boundary — s0 at the edge, s1
// at the peer, nothing at the cloud — and retracts at the last section
// when retract is set, so a test can watch the cascade reach back through
// every already-committed boundary.
func threeSectionTxn(retract bool) *Txn {
	return &Txn{
		Name: "three",
		Sections: []SectionSpec{
			{Name: "detect", Tier: TierEdge, RW: RWSet{Writes: []string{"s0"}}, Body: func(c *Ctx) error {
				c.Put("s0", store.Int64Value(1))
				return nil
			}},
			{Name: "classify", Tier: TierPeer, RW: RWSet{Writes: []string{"s1"}}, Body: func(c *Ctx) error {
				c.Put("s1", store.Int64Value(2))
				return nil
			}},
			{Name: "verify", Tier: TierCloud, RW: RWSet{Writes: []string{"s0", "s1"}}, Body: func(c *Ctx) error {
				if retract {
					c.Retract("erroneous detection removed at the last boundary")
				}
				return nil
			}},
		},
	}
}

// TestThreeSectionCommit drives a 3-section transaction through MS-IA
// boundary by boundary: each section's write becomes visible at its own
// commit (the per-boundary contract), and the instance ends
// final-committed with all three boundaries recorded.
func TestThreeSectionCommit(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSIA)
	in := m.NewInstance(threeSectionTxn(false), nil)

	s.Run(func() {
		if err := cc.RunSection(in, 0); err != nil {
			t.Fatalf("section 0: %v", err)
		}
		if v, ok := m.Store.Get("s0"); !ok || store.AsInt64(v) != 1 {
			t.Errorf("s0 not visible after boundary 0")
		}
		if _, ok := m.Store.Get("s1"); ok {
			t.Errorf("s1 visible before its boundary")
		}
		if err := cc.RunSection(in, 1); err != nil {
			t.Fatalf("section 1: %v", err)
		}
		if v, ok := m.Store.Get("s1"); !ok || store.AsInt64(v) != 2 {
			t.Errorf("s1 not visible after boundary 1")
		}
		if err := cc.RunSection(in, 2); err != nil {
			t.Fatalf("section 2: %v", err)
		}
	})
	if got := in.State(); got != StateFinalCommitted {
		t.Errorf("state = %v, want final-committed", got)
	}
	if got := in.CommittedSections(); got != 3 {
		t.Errorf("committed boundaries = %d, want 3", got)
	}
	st := m.Stats()
	if st.InitialCommits != 1 || st.SectionCommits != 1 || st.FinalCommits != 1 {
		t.Errorf("stats = %+v, want one commit per boundary kind", st)
	}
}

// TestThreeSectionCascadingRetraction is the §4.4 retraction stretched
// over three boundaries: sections 0 and 1 commit and are visible, a
// dependent transaction reads boundary 1's write, and the retraction at
// section 2 must undo both earlier boundaries AND cascade to the
// dependent.
func TestThreeSectionCascadingRetraction(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSIA)
	m.Store.Put("s0", store.Int64Value(100))
	m.Store.Put("s1", store.Int64Value(200))

	in := m.NewInstance(threeSectionTxn(true), nil)
	dep := m.NewInstance(&Txn{
		Name:      "dependent",
		InitialRW: RWSet{Reads: []string{"s1"}, Writes: []string{"d0"}},
		FinalRW:   RWSet{Writes: []string{"d0"}},
		Initial: func(c *Ctx) error {
			v, _ := c.Get("s1")
			c.Put("d0", store.Int64Value(store.AsInt64(v)+1))
			return nil
		},
		Final: func(c *Ctx) error { return nil },
	}, nil)

	s.Run(func() {
		if err := cc.RunSection(in, 0); err != nil {
			t.Fatalf("section 0: %v", err)
		}
		if err := cc.RunSection(in, 1); err != nil {
			t.Fatalf("section 1: %v", err)
		}
		// The dependent commits fully between boundaries 1 and 2, reading
		// the middle section's write.
		if err := cc.RunInitial(dep); err != nil {
			t.Fatalf("dependent initial: %v", err)
		}
		if err := cc.RunFinal(dep); err != nil {
			t.Fatalf("dependent final: %v", err)
		}
		// Boundary 2 retracts: sections 1..2 (and the initial) roll back.
		if err := cc.RunSection(in, 2); !errors.Is(err, ErrRetracted) {
			t.Fatalf("section 2 = %v, want ErrRetracted", err)
		}
	})

	if v, _ := m.Store.Get("s0"); store.AsInt64(v) != 100 {
		t.Errorf("s0 = %d, want 100 (boundary-0 write retracted)", store.AsInt64(v))
	}
	if v, _ := m.Store.Get("s1"); store.AsInt64(v) != 200 {
		t.Errorf("s1 = %d, want 200 (boundary-1 write retracted)", store.AsInt64(v))
	}
	if _, ok := m.Store.Get("d0"); ok {
		t.Error("dependent's write survived the cascade")
	}
	if in.State() != StateRetracted || dep.State() != StateRetracted {
		t.Errorf("states = %v/%v, want both retracted", in.State(), dep.State())
	}
	found := false
	for _, a := range dep.Apologies() {
		if strings.Contains(a.Reason, "cascaded") {
			found = true
		}
	}
	if !found {
		t.Error("dependent missing its cascade apology")
	}
}

// TestMSSRHoldsLocksAcrossAllSections pins the stretched Two Stage 2PL
// guarantee: MS-SR acquires the union of every section's locks at section
// 0 and holds them to the last boundary — so a conflicting no-wait
// transaction aborts anywhere in the window and succeeds after it.
func TestMSSRHoldsLocksAcrossAllSections(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSSR)
	rival := rivalCC(cc, twopc.MSSR, NoWait)

	conflicting := func() *Instance {
		return m.NewInstance(&Txn{
			Name:      "rival",
			InitialRW: RWSet{Writes: []string{"s1"}}, // the MIDDLE section's key
			FinalRW:   RWSet{Writes: []string{"s1"}},
			Initial:   func(c *Ctx) error { return nil },
			Final:     func(c *Ctx) error { return nil },
		}, nil)
	}

	in := m.NewInstance(threeSectionTxn(false), nil)
	s.Run(func() {
		if err := cc.RunSection(in, 0); err != nil {
			t.Fatalf("section 0: %v", err)
		}
		// Between boundaries 0 and 1 — before the middle section has even
		// run — its key is already locked.
		if err := rival.RunInitial(conflicting()); !errors.Is(err, ErrAborted) {
			t.Fatalf("rival between boundaries 0-1 = %v, want ErrAborted", err)
		}
		if err := cc.RunSection(in, 1); err != nil {
			t.Fatalf("section 1: %v", err)
		}
		// Between boundaries 1 and 2 the middle section's lock is STILL
		// held (MS-IA would have released it at its own commit).
		if err := rival.RunInitial(conflicting()); !errors.Is(err, ErrAborted) {
			t.Fatalf("rival between boundaries 1-2 = %v, want ErrAborted", err)
		}
		if err := cc.RunSection(in, 2); err != nil {
			t.Fatalf("section 2: %v", err)
		}
		// Every lock released at the last boundary.
		r := conflicting()
		if err := rival.RunInitial(r); err != nil {
			t.Fatalf("rival after final boundary: %v", err)
		}
		if err := rival.RunFinal(r); err != nil {
			t.Fatalf("rival final: %v", err)
		}
	})
	if n := m.Locks.Outstanding(); n != 0 {
		t.Errorf("%d locks leaked", n)
	}
}

// TestMSIAReleasesLocksPerBoundary is the contrast: under MS-IA the middle
// section's key is free both before and after its own boundary.
func TestMSIAReleasesLocksPerBoundary(t *testing.T) {
	s := vclock.NewSim()
	m, cc := newEdge(s, twopc.MSIA)
	rival := rivalCC(cc, twopc.MSSR, NoWait)

	in := m.NewInstance(threeSectionTxn(false), nil)
	s.Run(func() {
		if err := cc.RunSection(in, 0); err != nil {
			t.Fatalf("section 0: %v", err)
		}
		r := m.NewInstance(&Txn{
			Name:      "rival",
			InitialRW: RWSet{Writes: []string{"s1"}},
			FinalRW:   RWSet{Writes: []string{"s1"}},
			Initial:   func(c *Ctx) error { return nil },
			Final:     func(c *Ctx) error { return nil },
		}, nil)
		if err := rival.RunInitial(r); err != nil {
			t.Fatalf("rival under MS-IA gap: %v (the middle key must be free between boundaries)", err)
		}
		if err := rival.RunFinal(r); err != nil {
			t.Fatalf("rival final: %v", err)
		}
		for k := 1; k <= 2; k++ {
			if err := cc.RunSection(in, k); err != nil {
				t.Fatalf("section %d: %v", k, err)
			}
		}
	})
	if n := m.Locks.Outstanding(); n != 0 {
		t.Errorf("%d locks leaked", n)
	}
}

// TestSectionOutOfOrder: an explicitly N-section transaction must commit
// its boundaries in order under either protocol; skipping one is a
// programming error, reported, not silently absorbed.
func TestSectionOutOfOrder(t *testing.T) {
	for _, p := range protocols {
		s := vclock.NewSim()
		m, cc := newEdge(s, p)
		in := m.NewInstance(threeSectionTxn(false), nil)
		s.Run(func() {
			if err := cc.RunSection(in, 0); err != nil {
				t.Fatalf("%s: section 0: %v", p, err)
			}
			err := cc.RunSection(in, 2)
			if err == nil || !strings.Contains(err.Error(), "out of order") {
				t.Fatalf("%s: skipping section 1 = %v, want out-of-order error", p, err)
			}
		})
	}
}

// TestClassicTxnIsTwoSections: a Txn with no Sections keeps the canonical
// shape — two sections, edge then cloud — so every pre-graph call site
// behaves identically.
func TestClassicTxnIsTwoSections(t *testing.T) {
	tx := &Txn{
		Name:    "classic",
		Initial: func(c *Ctx) error { return nil },
		Final:   func(c *Ctx) error { return nil },
	}
	if got := tx.NumSections(); got != 2 {
		t.Fatalf("NumSections = %d, want 2", got)
	}
	if s := tx.SectionAt(0); s.Name != "initial" || s.Tier != TierEdge {
		t.Errorf("section 0 = %q/%v, want initial/edge", s.Name, s.Tier)
	}
	if s := tx.SectionAt(1); s.Name != "final" || s.Tier != TierCloud {
		t.Errorf("section 1 = %q/%v, want final/cloud", s.Name, s.Tier)
	}
}
