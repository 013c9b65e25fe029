package core

import (
	"reflect"
	"testing"

	"croesus/internal/detect"
	"croesus/internal/lock"
	"croesus/internal/store"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
	"croesus/internal/workload"
)

func sourceDet(conf float64) detect.Detection {
	return detect.Detection{Label: "dog", Confidence: conf, Box: video.Rect{X: 0.2, Y: 0.2, W: 0.1, H: 0.1}}
}

func TestWorkloadSourceShape(t *testing.T) {
	s := NewWorkloadSource(100, 7)
	tx := s.TxnFor(3, sourceDet(0.8))
	if tx == nil {
		t.Fatal("nil txn")
	}
	if got := len(tx.InitialRW.Reads) + len(tx.InitialRW.Writes); got != 6 {
		t.Errorf("declared ops = %d, want 6 (paper's workload)", got)
	}
	if len(tx.InitialRW.Writes) != 3 || len(tx.InitialRW.Reads) != 3 {
		t.Errorf("write/read split = %d/%d, want 3/3",
			len(tx.InitialRW.Writes), len(tx.InitialRW.Reads))
	}
}

func TestWorkloadSourceDeterministicKeys(t *testing.T) {
	s1 := NewWorkloadSource(100, 7)
	s2 := NewWorkloadSource(100, 7)
	a := s1.TxnFor(3, sourceDet(0.8))
	b := s2.TxnFor(3, sourceDet(0.8))
	for i := range a.InitialRW.Writes {
		if a.InitialRW.Writes[i] != b.InitialRW.Writes[i] {
			t.Fatal("write sets differ across identical sources")
		}
	}
	c := s1.TxnFor(4, sourceDet(0.8))
	same := true
	for i := range a.InitialRW.Writes {
		if a.InitialRW.Writes[i] != c.InitialRW.Writes[i] {
			same = false
		}
	}
	if same {
		t.Error("different frames drew identical key sets (suspicious)")
	}
}

// TestWorkloadSourceZipfKeysIgnoreCallOrder: under a Zipf chooser too, a
// transaction's keys are a function of (seed, frame, trigger box) — frames
// that wake at the same virtual instant call TxnFor in whatever order the
// OS threads arrive, and must not trade keys.
func TestWorkloadSourceZipfKeysIgnoreCallOrder(t *testing.T) {
	keys := func(order []int) map[int][]string {
		s := NewWorkloadSource(100, 7)
		s.Keys = workload.ShardedZipf{Home: 1, Shards: 3, CrossProb: 0.3, Zipf: workload.NewZipf("item", 100, 1.2)}
		out := map[int][]string{}
		for _, frame := range order {
			out[frame] = s.TxnFor(frame, sourceDet(0.8)).InitialRW.Writes
		}
		return out
	}
	forward, backward := keys([]int{1, 2, 3, 4, 5}), keys([]int{5, 4, 3, 2, 1})
	if !reflect.DeepEqual(forward, backward) {
		t.Errorf("keys depend on TxnFor call order:\n%v\nvs\n%v", forward, backward)
	}
}

// runSourceTxn pushes one generated transaction through a full
// initial+final cycle with the given final input case.
func runSourceTxn(t *testing.T, cas MatchCase) (*txn.Manager, *txn.Instance) {
	t.Helper()
	clk := vclock.NewSim()
	m := txn.NewManager(clk, store.New(), lock.NewManager(clk))
	cc := &txn.MSIA{M: m}
	s := NewWorkloadSource(100, 7)
	d := sourceDet(0.8)
	tx := s.TxnFor(1, d)
	inst := m.NewInstance(tx, InitialInput{FrameIndex: 1, Trigger: d})
	clk.Run(func() {
		if err := cc.RunInitial(inst); err != nil {
			t.Fatalf("initial: %v", err)
		}
		corrected := d
		corrected.Label = "cat"
		inst.FinalIn = FinalInput{FrameIndex: 1, Case: cas, Edge: d, Cloud: corrected}
		if err := cc.RunFinal(inst); err != nil && err != txn.ErrRetracted {
			t.Fatalf("final: %v", err)
		}
	})
	return m, inst
}

func TestWorkloadSourceCorrectCaseTerminates(t *testing.T) {
	m, inst := runSourceTxn(t, MatchCorrect)
	if inst.State() != txn.StateFinalCommitted {
		t.Errorf("state = %v", inst.State())
	}
	if st := m.Stats(); st.Apologies != 0 {
		t.Errorf("apologies = %d on a correct detection", st.Apologies)
	}
	// Inserted items carry the original label.
	for _, k := range m.Store.Keys("item:") {
		if v, _ := m.Store.Get(k); string(v) != "dog" {
			t.Errorf("key %s = %q, want dog", k, v)
		}
	}
}

func TestWorkloadSourceCorrectedCaseOverwrites(t *testing.T) {
	m, inst := runSourceTxn(t, MatchCorrected)
	if inst.State() != txn.StateFinalCommitted {
		t.Errorf("state = %v", inst.State())
	}
	if st := m.Stats(); st.Apologies != 1 {
		t.Errorf("apologies = %d, want 1", st.Apologies)
	}
	for _, k := range m.Store.Keys("item:") {
		if v, _ := m.Store.Get(k); string(v) != "cat" {
			t.Errorf("key %s = %q, want corrected label", k, v)
		}
	}
}

func TestWorkloadSourceErroneousCaseRetracts(t *testing.T) {
	m, inst := runSourceTxn(t, MatchErroneous)
	if inst.State() != txn.StateRetracted {
		t.Errorf("state = %v, want retracted", inst.State())
	}
	if n := len(m.Store.Keys("item:")); n != 0 {
		t.Errorf("%d inserted items survived retraction", n)
	}
	if st := m.Stats(); st.Retractions != 1 {
		t.Errorf("retractions = %d", st.Retractions)
	}
}

func TestWorkloadSourceOpCostConsumesTime(t *testing.T) {
	clk := vclock.NewSim()
	m := txn.NewManager(clk, store.New(), lock.NewManager(clk))
	cc := &txn.MSIA{M: m}
	s := NewWorkloadSource(100, 7)
	s.Clk = clk
	s.OpCost = 1000000 // 1ms per op
	d := sourceDet(0.8)
	inst := m.NewInstance(s.TxnFor(1, d), InitialInput{Trigger: d})
	clk.Run(func() {
		if err := cc.RunInitial(inst); err != nil {
			t.Fatal(err)
		}
	})
	if clk.Now() < 6000000 { // 6 ops × 1ms
		t.Errorf("elapsed %v, want ≥ 6ms of op cost", clk.Now())
	}
}
