package txn

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"croesus/internal/store"
	"croesus/internal/vclock"
	"croesus/internal/workload"
)

func opsTxn(name string, body []workload.Op) *Txn {
	var rw RWSet
	for _, op := range body {
		if op.Kind == workload.OpInsert {
			rw.Writes = append(rw.Writes, op.Key)
		} else {
			rw.Reads = append(rw.Reads, op.Key)
		}
	}
	run := func(c *Ctx) error {
		for _, op := range body {
			if op.Kind == workload.OpInsert {
				v, _ := c.Get(op.Key)
				c.Put(op.Key, store.Int64Value(store.AsInt64(v)+1))
			} else {
				c.Get(op.Key)
			}
		}
		return nil
	}
	return &Txn{Name: name, InitialRW: rw, FinalRW: RWSet{}, Initial: run, Final: func(c *Ctx) error { return nil }}
}

// opsTxnSlow is opsTxn with a little virtual execution time inside the
// section, so concurrently running conflicting transactions actually
// overlap in simulated time.
func opsTxnSlow(clk vclock.Clock, name string, body []workload.Op) *Txn {
	tx := opsTxn(name, body)
	inner := tx.Initial
	tx.Initial = func(c *Ctx) error {
		clk.Sleep(2 * time.Millisecond)
		return inner(c)
	}
	return tx
}

func TestWavesConflictFree(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	rng := rand.New(rand.NewSource(5))
	var insts []*Instance
	for i := 0; i < 40; i++ {
		body := workload.UpdateOps(rng, "hot", 20, 5)
		insts = append(insts, m.NewInstance(opsTxn("t", body), nil))
	}
	waves := Waves(insts)
	total := 0
	for _, wave := range waves {
		total += len(wave)
		// Within a wave, no two instances conflict.
		for i := 0; i < len(wave); i++ {
			for j := i + 1; j < len(wave); j++ {
				a, b := footprintOf(wave[i]), footprintOf(wave[j])
				if a.conflicts(b) {
					t.Fatalf("wave contains conflicting instances %d and %d", i, j)
				}
			}
		}
	}
	if total != len(insts) {
		t.Fatalf("waves cover %d of %d instances", total, len(insts))
	}
	if len(waves) < 2 {
		t.Errorf("expected multiple waves for a 20-key hot spot, got %d", len(waves))
	}
}

// TestSequencerZeroAbortsAndZeroWaits is the mechanism behind Figure 6(b)'s
// MS-IA line: a hot-spot batch run through the sequencer completes without
// aborts and — because conflicting transactions never overlap — without a
// single lock wait.
func TestSequencerZeroAbortsAndZeroWaits(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	seq := &Sequencer{CC: &MSIA{M: m}, Clk: s}
	rng := rand.New(rand.NewSource(6))
	var insts []*Instance
	for i := 0; i < 50; i++ {
		body := workload.UpdateOps(rng, "hot", 100, 5)
		insts = append(insts, m.NewInstance(opsTxnSlow(s, "hot", body), nil))
	}
	var errs []error
	s.Run(func() {
		errs = seq.RunInitialBatch(insts)
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
	}
	if st := m.Stats(); st.Aborts != 0 {
		t.Errorf("aborts = %d, want 0 under the sequencer", st.Aborts)
	}
	if n, _ := m.Locks.WaitStats(); n != 0 {
		t.Errorf("lock waits = %d, want 0 (conflicting txns must not overlap)", n)
	}
}

// TestUnsequencedContentionWaits is the contrast case: the same hot-spot
// batch run fully concurrently does queue on locks.
func TestUnsequencedContentionWaits(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	cc := &MSIA{M: m}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		body := workload.UpdateOps(rng, "hot", 20, 5)
		inst := m.NewInstance(opsTxnSlow(s, "hot", body), nil)
		s.Go(func() {
			if err := cc.RunInitial(inst); err != nil {
				t.Errorf("initial: %v", err)
			}
		})
	}
	s.Wait()
	if n, _ := m.Locks.WaitStats(); n == 0 {
		t.Error("expected lock waits under unsequenced hot-spot contention")
	}
	if st := m.Stats(); st.Aborts != 0 {
		t.Errorf("aborts = %d, want 0 (MS-IA blocks, never aborts)", st.Aborts)
	}
}

func TestSequencerPreservesEffects(t *testing.T) {
	// Sum of increments must equal total ops regardless of wave layout.
	s := vclock.NewSim()
	m := newTestManager(s)
	seq := &Sequencer{CC: &MSIA{M: m}, Clk: s}
	rng := rand.New(rand.NewSource(7))
	const n, opsPer = 30, 5
	var insts []*Instance
	for i := 0; i < n; i++ {
		body := workload.UpdateOps(rng, "k", 10, opsPer)
		insts = append(insts, m.NewInstance(opsTxn("inc", body), nil))
	}
	s.Run(func() {
		for _, err := range seq.RunInitialBatch(insts) {
			if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		}
	})
	var sum int64
	for _, k := range m.Store.Keys("k:") {
		v, _ := m.Store.Get(k)
		sum += store.AsInt64(v)
	}
	if sum != n*opsPer {
		t.Errorf("total increments = %d, want %d", sum, n*opsPer)
	}
}

// TestSequencerRunsFinals: instances committed by the sequencer's initial
// batch finalize through the CC.
func TestSequencerRunsFinals(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	seq := &Sequencer{CC: &MSIA{M: m}, Clk: s}
	tx := &Txn{
		Name:      "two-stage",
		InitialRW: RWSet{Writes: []string{"a"}},
		FinalRW:   RWSet{Writes: []string{"a"}},
		Initial:   func(c *Ctx) error { c.Put("a", store.Int64Value(1)); return nil },
		Final:     func(c *Ctx) error { c.Put("a", store.Int64Value(2)); return nil },
	}
	insts := []*Instance{m.NewInstance(tx, nil), m.NewInstance(tx, nil)}
	s.Run(func() {
		for _, err := range seq.RunInitialBatch(insts) {
			if err != nil {
				t.Fatalf("initial: %v", err)
			}
		}
		for _, in := range insts {
			if err := seq.CC.RunFinal(in); err != nil {
				t.Fatalf("final: %v", err)
			}
		}
	})
	for _, in := range insts {
		if in.State() != StateFinalCommitted {
			t.Errorf("state = %v", in.State())
		}
	}
	v, _ := m.Store.Get("a")
	if store.AsInt64(v) != 2 {
		t.Errorf("a = %d", store.AsInt64(v))
	}
}

func TestSequencerReportsBodyErrors(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	seq := &Sequencer{CC: &MSIA{M: m}, Clk: s}
	boom := errors.New("boom")
	bad := m.NewInstance(&Txn{
		Name: "bad", InitialRW: RWSet{}, FinalRW: RWSet{},
		Initial: func(c *Ctx) error { return boom },
		Final:   func(c *Ctx) error { return nil },
	}, nil)
	good := m.NewInstance(&Txn{
		Name: "good", InitialRW: RWSet{}, FinalRW: RWSet{},
		Initial: func(c *Ctx) error { return nil },
		Final:   func(c *Ctx) error { return nil },
	}, nil)
	var errs []error
	s.Run(func() {
		errs = seq.RunInitialBatch([]*Instance{bad, good})
	})
	if !errors.Is(errs[0], boom) {
		t.Errorf("errs[0] = %v", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("errs[1] = %v", errs[1])
	}
}

// Property: for any random batch, Waves partitions all instances and every
// wave is internally conflict-free.
func TestWavesPartitionProperty(t *testing.T) {
	s := vclock.NewSim()
	m := newTestManager(s)
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%40) + 1
		rng := rand.New(rand.NewSource(seed))
		var insts []*Instance
		for i := 0; i < n; i++ {
			body := workload.UpdateOps(rng, "p", 8, 3)
			insts = append(insts, m.NewInstance(opsTxn("p", body), nil))
		}
		waves := Waves(insts)
		seen := map[ID]bool{}
		for _, wave := range waves {
			for i := 0; i < len(wave); i++ {
				if seen[wave[i].ID] {
					return false
				}
				seen[wave[i].ID] = true
				for j := i + 1; j < len(wave); j++ {
					if footprintOf(wave[i]).conflicts(footprintOf(wave[j])) {
						return false
					}
				}
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// opsFootprint is the footprint the sequencer sees for a transaction
// whose initial section runs body.
func opsFootprint(body []workload.Op) footprint {
	return footprintOf(&Instance{T: opsTxn("t", body)})
}

// TestFootprintConflicts pins the §4.1 conflict rule the sequencer
// partitions waves by: a shared key with at least one writer.
func TestFootprintConflicts(t *testing.T) {
	w := opsFootprint([]workload.Op{{Kind: workload.OpInsert, Key: "x"}})
	r := opsFootprint([]workload.Op{{Kind: workload.OpRead, Key: "x"}})
	r2 := opsFootprint([]workload.Op{{Kind: workload.OpRead, Key: "y"}})
	if !w.conflicts(r) || !r.conflicts(w) {
		t.Error("write-read on same key must conflict")
	}
	if r.conflicts(r) {
		t.Error("read-read must not conflict")
	}
	if w.conflicts(r2) {
		t.Error("disjoint keys must not conflict")
	}
	if !w.conflicts(w) {
		t.Error("write-write must conflict")
	}
}

// Property: footprint.conflicts is symmetric.
func TestFootprintConflictsSymmetryProperty(t *testing.T) {
	gen := func(raw []uint8) footprint {
		var ops []workload.Op
		for i := 0; i+1 < len(raw) && len(ops) < 8; i += 2 {
			kind := workload.OpRead
			if raw[i]%2 == 0 {
				kind = workload.OpInsert
			}
			ops = append(ops, workload.Op{Kind: kind, Key: string(rune('a' + raw[i+1]%6))})
		}
		return opsFootprint(ops)
	}
	f := func(ra, rb []uint8) bool {
		a, b := gen(ra), gen(rb)
		return a.conflicts(b) == b.conflicts(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
