package faults

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"croesus/internal/lock"
	"croesus/internal/netsim"
	"croesus/internal/node"
	"croesus/internal/store"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
)

// miniFleet builds a two-partition durable fleet on clk: edge 0 is the
// home of the returned ShardedCC, edge 1 is remote over a 5ms link.
func miniFleet(t *testing.T, clk vclock.Clock) (*twopc.ShardedCC, []*twopc.Partition, [][]transport.Path) {
	t.Helper()
	partitioner := func(key string) int {
		if key[0] == '1' {
			return 1
		}
		return 0
	}
	fleet := node.NewFleet(clk, 2, partitioner, nil, twopc.MSIA)
	dir := t.TempDir()
	for i, p := range fleet.Parts {
		if _, err := p.OpenWAL(filepath.Join(dir, "edge.wal"+string(rune('0'+i))), false); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.CloseWAL() })
	}
	fleet.Journal()
	mk := func() *netsim.Link { return &netsim.Link{Name: "peer", Propagation: 5 * time.Millisecond} }
	links := [][]transport.Path{{nil, mk()}, {mk(), nil}}
	return fleet.CC(0, links[0]), fleet.Parts, links
}

func writeTxn(key string, v int64) *txn.Txn {
	body := func(c *txn.Ctx) error {
		c.Put(key, store.Int64Value(v))
		return nil
	}
	return &txn.Txn{
		Name:      "w-" + key,
		InitialRW: txn.RWSet{Writes: []string{key}},
		FinalRW:   txn.RWSet{Writes: []string{key}},
		Initial:   body,
		Final:     body,
	}
}

// crossTxn writes one key on each partition in both sections, so both the
// initial and the final commit run a full cross-edge 2PC round.
func crossTxn(v int64) *txn.Txn {
	body := func(c *txn.Ctx) error {
		c.Put("0x", store.Int64Value(v))
		c.Put("1x", store.Int64Value(v))
		return nil
	}
	return &txn.Txn{
		Name:      "cross",
		InitialRW: txn.RWSet{Writes: []string{"0x", "1x"}},
		FinalRW:   txn.RWSet{Writes: []string{"0x", "1x"}},
		Initial:   body,
		Final:     body,
	}
}

func runTxn(t *testing.T, cc *twopc.ShardedCC, tx *txn.Txn) error {
	t.Helper()
	in := cc.M.NewInstance(tx, nil)
	if err := cc.RunInitial(in); err != nil {
		return err
	}
	return cc.RunFinal(in)
}

// crashAt fail-stops edge e at clock time at and, with a positive
// restartAfter, recovers it that long later — what a timeline player does
// for an edge_crash event.
func crashAt(clk vclock.Clock, inj *Injector, e int, at, restartAfter time.Duration) {
	clk.Go(func() {
		clk.Sleep(at)
		if inj.Crash(e) && restartAfter > 0 {
			clk.Sleep(restartAfter)
			inj.Restart(e)
		}
	})
}

func TestInjectorValidation(t *testing.T) {
	clk := vclock.NewSim()
	_, parts, links := miniFleet(t, clk)
	if _, err := NewInjector(clk, 0, parts, links[:1]); err == nil || !strings.Contains(err.Error(), "link rows") {
		t.Errorf("mismatched link rows: err = %v", err)
	}
	// A partition without a WAL cannot be crashed survivably.
	bare := []*twopc.Partition{twopc.NewPartitionOver(0, store.New(), lock.NewManager(clk))}
	if _, err := NewInjector(clk, 0, bare, [][]transport.Path{{nil}}); err == nil {
		t.Error("injector accepted a WAL-less partition")
	}
}

// A crash wipes the edge's volatile state; restart rebuilds exactly the
// committed state from the WAL — junk that only lived in memory is gone,
// committed writes are back, and work resumes.
func TestCrashRestartRebuildsFromLog(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts, links := miniFleet(t, clk)
	inj, err := NewInjector(clk, 0, parts, links)
	if err != nil {
		t.Fatal(err)
	}
	cc.Faults = inj

	sleepUntil := func(at time.Duration) { clk.Sleep(at - clk.Now()) }
	crashAt(clk, inj, 1, 100*time.Millisecond, 50*time.Millisecond)
	clk.Go(func() {
		// Before the crash: a committed remote write and a cross one.
		if err := runTxn(t, cc, writeTxn("1a", 1)); err != nil {
			t.Errorf("pre-crash txn: %v", err)
		}
		// Volatile junk on edge 1 that never committed through a txn.
		parts[1].Store.Put("1junk", store.Int64Value(99))

		sleepUntil(110 * time.Millisecond)
		if !inj.Down(1) {
			t.Error("edge 1 not down inside its outage window")
		}
		// A transaction needing the dead edge fails, not blocks.
		if err := runTxn(t, cc, writeTxn("1b", 2)); err == nil {
			t.Error("txn against a crashed edge succeeded")
		}

		sleepUntil(200 * time.Millisecond) // well past the restart
		if inj.Down(1) {
			t.Error("edge 1 still down after RestartAfter")
		}
		if _, ok := parts[1].Store.Get("1junk"); ok {
			t.Error("uncommitted in-memory junk survived the crash")
		}
		if v, ok := parts[1].Store.Get("1a"); !ok || store.AsInt64(v) != 1 {
			t.Errorf("committed write lost across the crash: %v %v", v, ok)
		}
		// The fleet is usable again.
		if err := runTxn(t, cc, writeTxn("1c", 3)); err != nil {
			t.Errorf("post-recovery txn: %v", err)
		}
	})
	clk.Wait()
	inj.Finish()

	c := inj.Counters()
	if c.Crashes != 1 || c.Restarts != 1 {
		t.Errorf("crashes/restarts = %d/%d, want 1/1", c.Crashes, c.Restarts)
	}
	if c.TxnsFailed == 0 {
		t.Error("the outage-window transaction was not counted as failed")
	}
	if c.ReplayedRecords == 0 {
		t.Error("recovery replayed nothing")
	}
	if err := inj.VerifyDurability(); err != nil {
		t.Errorf("durability: %v", err)
	}
	if rep := inj.Report(); rep.RecoveryP50 < 50*time.Millisecond {
		t.Errorf("recovery p50 = %s, want ≥ the 50ms outage", rep.RecoveryP50)
	}
}

// One MS-IA transaction runs two independent commit rounds, and the
// initial round's durable commit marker must never resolve the final
// round. Here the initial 2PC commits fully, then the coordinator
// fail-stops after collecting the final round's votes but before its
// decision is durable: the final round is dead — the live fleet retracts
// the transaction — and both the coordinator's own in-doubt block and the
// participant's must presume abort even though the same transaction id
// carries a round-0 commit marker on the coordinator's log.
func TestFinalRoundNotResolvedByInitialCommitMarker(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts, links := miniFleet(t, clk)
	inj, err := NewInjector(clk, 0, parts, links)
	if err != nil {
		t.Fatal(err)
	}
	cc.Faults = inj
	// Edge 0 coordinates both rounds; its second after-prepare instant is
	// the final round.
	inj.Arm(TwoPCCrash{Edge: 0, Point: twopc.PointAfterPrepare, Round: 2, RestartAfter: 50 * time.Millisecond})

	clk.Go(func() {
		if err := runTxn(t, cc, crossTxn(7)); err == nil {
			t.Error("transaction survived its coordinator dying before the final decision")
		}
		clk.Sleep(500 * time.Millisecond) // well past the restart
		for i, p := range parts {
			if got := p.StagedBy(0); len(got) != 0 {
				t.Errorf("partition %d still stages %v after recovery", i, got)
			}
		}
		// The retraction must have held: nothing half-committed.
		for _, k := range []string{"0x", "1x"} {
			if v, ok := cc.M.DB.Get(k); ok {
				t.Errorf("retracted write %s = %v resurfaced via the initial round's commit marker", k, v)
			}
		}
	})
	clk.Wait()
	inj.Finish()

	c := inj.Counters()
	if c.InDoubt == 0 || c.InDoubtAborted != c.InDoubt || c.InDoubtCommitted != 0 {
		t.Errorf("in-doubt resolution = %+v, want every final-round block presumed abort", c)
	}
	if err := inj.VerifyDurability(); err != nil {
		t.Errorf("durability: %v", err)
	}
	for i, p := range parts {
		if n := p.Locks.Outstanding(); n != 0 {
			t.Errorf("partition %d leaked %d locks", i, n)
		}
	}
}

// A recovering edge must not read a coordinator's decision cache across a
// partitioned peer link, and a recovering coordinator's sweep must not
// deliver decisions across one either: the in-doubt block stays staged
// until the link heals (here: until the end-of-run sweep resolves it).
func TestInquiryDefersAcrossPartitionedLink(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts, links := miniFleet(t, clk)
	inj, err := NewInjector(clk, 0, parts, links)
	if err != nil {
		t.Fatal(err)
	}
	cc.Faults = inj
	inj.Arm(TwoPCCrash{Edge: 1, Point: twopc.PointParticipantPrepared, Round: 1, RestartAfter: 100 * time.Millisecond})
	// The coordinator itself crashes and restarts while the link is still
	// severed: its recovery sweep must skip the partitioned participant
	// instead of pushing the decision across.
	crashAt(clk, inj, 0, 600*time.Millisecond, 100*time.Millisecond)

	clk.Go(func() {
		// The participant crashes right after its durable yes vote; the
		// coordinator commits the initial round without it, then the final
		// section fails against the dead edge and the txn retracts.
		runTxn(t, cc, crossTxn(3))
		// Sever the peer path before the restart fires — only the
		// coordinator→participant direction, which must partition the pair
		// for resolution in both directions (an inquiry is a round trip; a
		// sweep's delivery travels exactly this severed direction).
		links[0][1].SetDown(true)
		clk.Sleep(400 * time.Millisecond) // well past the participant restart
		if inj.Down(1) {
			t.Fatal("edge 1 still down after RestartAfter")
		}
		if got := parts[1].StagedBy(0); len(got) != 1 {
			t.Errorf("staged blocks at the recovered edge = %v, want the one in-doubt block held until the link heals", got)
		}
		clk.Sleep(500 * time.Millisecond) // well past the coordinator's crash + sweep
		if inj.Down(0) {
			t.Fatal("edge 0 still down after RestartAfter")
		}
		if got := parts[1].StagedBy(0); len(got) != 1 {
			t.Errorf("staged blocks after the coordinator's sweep = %v, want the block still held across the severed link", got)
		}
		if c := inj.Counters(); c.InDoubt != 0 {
			t.Errorf("in-doubt resolved %d blocks across a severed link", c.InDoubt)
		}
		links[0][1].SetDown(false)
	})
	clk.Wait()
	inj.Finish()

	c := inj.Counters()
	if c.InDoubt != 1 || c.InDoubtCommitted != 1 {
		t.Errorf("in-doubt resolution = %+v, want the initial-round block committed at Finish", c)
	}
	// The transaction was retracted mid-run (its final section died with
	// the participant), and the retraction's restores were journaled while
	// the block was in doubt. The deferred commit must not resurrect the
	// staged writes over that compensation.
	for _, k := range []string{"0x", "1x"} {
		if v, ok := cc.M.DB.Get(k); ok {
			t.Errorf("retracted write %s = %v resurfaced when the deferred block committed", k, v)
		}
	}
	if err := inj.VerifyDurability(); err != nil {
		t.Errorf("durability: %v", err)
	}
}

// An edge left down until the run drains is repaired by Finish at no
// charged cost; that repair must not contribute a sample to the
// recovery-latency percentiles.
func TestEndOfRunRepairNotSampled(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts, links := miniFleet(t, clk)
	inj, err := NewInjector(clk, 0, parts, links)
	if err != nil {
		t.Fatal(err)
	}
	cc.Faults = inj
	crashAt(clk, inj, 1, 10*time.Millisecond, 0) // no restart: down until drain

	clk.Go(func() {
		if err := runTxn(t, cc, writeTxn("0a", 1)); err != nil {
			t.Errorf("home txn: %v", err)
		}
		clk.Sleep(100 * time.Millisecond)
	})
	clk.Wait()
	inj.Finish()

	c := inj.Counters()
	if c.Crashes != 1 || c.Restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1 (Finish repairs the edge)", c.Crashes, c.Restarts)
	}
	if rep := inj.Report(); rep.RecoveryP50 != 0 || rep.RecoveryP99 != 0 {
		t.Errorf("recovery percentiles = %s/%s from an uncharged end-of-run repair, want no samples", rep.RecoveryP50, rep.RecoveryP99)
	}
}

// A partitioned peer link fails cross-edge transactions without crashing
// anything, and healing restores them.
func TestLinkPartitionFailsCrossEdgeTxns(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts, links := miniFleet(t, clk)
	inj, err := NewInjector(clk, 0, parts, links)
	if err != nil {
		t.Fatal(err)
	}
	cc.Faults = inj
	clk.Go(func() {
		clk.Sleep(10 * time.Millisecond)
		inj.SetLink(0, 1, true)
		clk.Sleep(20 * time.Millisecond)
		inj.SetLink(0, 1, false)
	})

	clk.Go(func() {
		clk.Sleep(15 * time.Millisecond)
		if err := runTxn(t, cc, writeTxn("1a", 1)); err == nil {
			t.Error("cross-edge txn succeeded over a partitioned link")
		}
		// Home-only work is unaffected by the peer partition.
		if err := runTxn(t, cc, writeTxn("0a", 5)); err != nil {
			t.Errorf("home txn during link partition: %v", err)
		}
		clk.Sleep(30 * time.Millisecond) // past the heal
		if err := runTxn(t, cc, writeTxn("1a", 2)); err != nil {
			t.Errorf("cross-edge txn after heal: %v", err)
		}
	})
	clk.Wait()
	inj.Finish()

	c := inj.Counters()
	if c.LinkOutages != 1 || c.Crashes != 0 {
		t.Errorf("outages/crashes = %d/%d, want 1/0", c.LinkOutages, c.Crashes)
	}
	if c.TxnsFailed == 0 {
		t.Error("partitioned-link transaction not counted as failed")
	}
	if v, _ := parts[1].Store.Get("1a"); store.AsInt64(v) != 2 {
		t.Errorf("post-heal write = %v", v)
	}
	if err := inj.VerifyDurability(); err != nil {
		t.Errorf("durability: %v", err)
	}
}

// A 2PC trigger counts its point from the moment it is armed: the
// participant's first prepared vote after Arm crashes it, however many
// votes it cast before.
func TestArmCountsFromArming(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts, links := miniFleet(t, clk)
	inj, err := NewInjector(clk, 0, parts, links)
	if err != nil {
		t.Fatal(err)
	}
	cc.Faults = inj
	clk.Go(func() {
		// Both rounds of this transaction reach edge 1's prepared vote.
		if err := runTxn(t, cc, crossTxn(1)); err != nil {
			t.Errorf("unarmed txn: %v", err)
		}
		inj.Arm(TwoPCCrash{Edge: 1, Point: twopc.PointParticipantPrepared, Round: 1})
		if err := runTxn(t, cc, crossTxn(2)); err == nil {
			t.Error("txn survived the trigger armed before it")
		}
		if !inj.Down(1) {
			t.Error("edge 1 not down after its first prepared vote since Arm")
		}
	})
	clk.Wait()
	inj.Finish()
	if c := inj.Counters(); c.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", c.Crashes)
	}
	if err := inj.VerifyDurability(); err != nil {
		t.Errorf("durability: %v", err)
	}
}

// The hazard of presumed abort's forget step: a coordinator that forgets a
// round before every participant has logged its decision answers a late
// inquiry with presumed abort, and a committed write vanishes. Here the
// participant fail-stops right after its yes vote, so the commit cannot be
// delivered to it; while it is down the coordinator checkpoints, crashes,
// and recovers from that checkpoint. The participant's recovery must still
// find the commit, and only then may the coordinator forget the round.
func TestForgetWaitsForEveryParticipant(t *testing.T) {
	clk := vclock.NewSim()
	cc, parts, links := miniFleet(t, clk)
	inj, err := NewInjector(clk, 0, parts, links)
	if err != nil {
		t.Fatal(err)
	}
	cc.Faults = inj
	inj.Arm(TwoPCCrash{Edge: 1, Point: twopc.PointParticipantPrepared, Round: 1, RestartAfter: 400 * time.Millisecond})
	crashAt(clk, inj, 0, 200*time.Millisecond, 100*time.Millisecond)

	// The initial section writes on both partitions (a 2PC round the
	// participant's crash interrupts); the final one on the home partition
	// alone, so the transaction commits.
	body := func(c *txn.Ctx) error {
		c.Put("0y", store.Int64Value(5))
		if c.Stage() == txn.StageInitial {
			c.Put("1y", store.Int64Value(5))
		}
		return nil
	}
	tx := &txn.Txn{
		Name:      "cross-then-home",
		InitialRW: txn.RWSet{Writes: []string{"0y", "1y"}},
		FinalRW:   txn.RWSet{Writes: []string{"0y"}},
		Initial:   body,
		Final:     body,
	}
	sleepUntil := func(at time.Duration) { clk.Sleep(at - clk.Now()) }
	clk.Go(func() {
		in := cc.M.NewInstance(tx, nil)
		if err := cc.RunInitial(in); err != nil {
			t.Fatalf("initial section: %v", err)
		}
		if err := cc.RunFinal(in); err != nil {
			t.Fatalf("final section: %v", err)
		}
		cr := twopc.CommitRound{ID: in.ID, Round: twopc.RoundInitial}
		if !inj.Down(1) {
			t.Fatal("the participant did not crash at its yes vote")
		}
		if !parts[0].Decided(cr) {
			t.Error("the coordinator forgot a round its participant has not logged")
		}
		sleepUntil(100 * time.Millisecond)
		if !inj.Checkpoint(0) {
			t.Fatal("the coordinator's checkpoint was skipped")
		}
		sleepUntil(350 * time.Millisecond) // the coordinator is back
		if inj.Down(0) || !inj.Down(1) {
			t.Fatal("want the coordinator recovered and the participant still down")
		}
		if !parts[0].Decided(cr) {
			t.Error("the coordinator recovered from its checkpoint without the decision")
		}
		sleepUntil(600 * time.Millisecond) // the participant is back
		if v, ok := parts[1].Store.Get("1y"); !ok || store.AsInt64(v) != 5 {
			t.Errorf("the participant's committed write is %v %v, want 5: the round resolved to abort", v, ok)
		}
		if parts[0].Decided(cr) {
			t.Error("the coordinator still keeps the round after its last participant logged it")
		}
	})
	clk.Wait()
	inj.Finish()

	if c := inj.Counters(); c.InDoubt != 1 || c.InDoubtCommitted != 1 {
		t.Errorf("in-doubt resolution = %+v, want the one block committed", c)
	}
	if err := inj.VerifyDurability(); err != nil {
		t.Errorf("durability: %v", err)
	}
}
