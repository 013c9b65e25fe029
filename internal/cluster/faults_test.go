package cluster

import (
	"testing"
	"time"

	"croesus/internal/faults"
	"croesus/internal/twopc"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// faultyConfig is the canonical fault-injection fleet: the sharded test
// fleet plus a scripted failure plan.
func faultyConfig(clk vclock.Clock, proto twopc.Protocol, plan *faults.Plan) Config {
	cfg := shardedConfig(clk, 0.4, proto)
	cfg.Faults = plan
	return cfg
}

// crashPlan is the standard schedule: a participant fail-stops right after
// voting yes in its first 2PC round, an edge fail-stops mid-run and
// recovers, and a peer link partitions and heals.
func crashPlan() *faults.Plan {
	return &faults.Plan{
		TwoPC: []faults.TwoPCCrash{
			{Edge: 2, Point: twopc.PointParticipantPrepared, Round: 1, RestartAfter: 600 * time.Millisecond},
		},
		Crashes: []faults.EdgeCrash{
			{Edge: 1, At: 4 * time.Second, RestartAfter: 1500 * time.Millisecond},
		},
		Links: []faults.LinkFault{
			{A: 0, B: 2, At: 9 * time.Second, Heal: 10 * time.Second},
		},
	}
}

// The acceptance scenario: a scripted participant-edge crash mid-2PC must
// recover via the WAL with zero committed writes lost and zero leaked
// locks, and the fleet must keep running through the other faults.
func TestClusterFaultsParticipantCrashRecovery(t *testing.T) {
	clk := vclock.NewSim()
	c, err := New(faultyConfig(clk, twopc.MSIA, crashPlan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := c.Run()

	if rep.Frames != 160 {
		t.Fatalf("fleet frames = %d, want 160", rep.Frames)
	}
	f := rep.Faults
	if f == nil {
		t.Fatal("no fault report despite a fault plan")
	}
	if f.Crashes < 2 {
		t.Errorf("crashes = %d, want the scripted participant crash and the edge crash", f.Crashes)
	}
	if f.Restarts != f.Crashes {
		t.Errorf("restarts = %d, crashes = %d — the run must end with a healed fleet", f.Restarts, f.Crashes)
	}
	if f.LinkOutages != 1 {
		t.Errorf("link outages = %d, want 1", f.LinkOutages)
	}
	if f.InDoubt == 0 {
		t.Error("the participant crash after its yes vote must leave an in-doubt block to resolve")
	}
	if f.InDoubt != f.InDoubtCommitted+f.InDoubtAborted {
		t.Errorf("in-doubt accounting inconsistent: %+v", f)
	}
	if f.ReplayedRecords == 0 {
		t.Error("recovery replayed no WAL records")
	}
	if f.RecoveryP50 <= 0 {
		t.Errorf("recovery p50 = %s, want > 0", f.RecoveryP50)
	}
	// Zero committed writes lost, zero uncommitted residue: every
	// partition's live store must equal what its log recovers to.
	if err := c.Injector().VerifyDurability(); err != nil {
		t.Errorf("durability violated: %v", err)
	}
	// Zero leaked locks anywhere in the fleet.
	for _, e := range c.Edges() {
		if n := e.Locks.Outstanding(); n != 0 {
			t.Errorf("edge %s leaked %d locks", e.Spec.ID, n)
		}
	}
}

// MS-SR holds locks across the cloud round trip; a crash in that window
// must retract the transaction and release everything — never leak the
// held locks or commit on lost state.
func TestClusterFaultsMSSRNoLeakedLocks(t *testing.T) {
	clk := vclock.NewSim()
	plan := &faults.Plan{
		Crashes: []faults.EdgeCrash{
			{Edge: 0, At: 3 * time.Second, RestartAfter: time.Second},
			{Edge: 2, At: 8 * time.Second, RestartAfter: 2 * time.Second},
		},
	}
	c, err := New(faultyConfig(clk, twopc.MSSR, plan))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := c.Run()

	if rep.Faults == nil || rep.Faults.Crashes != 2 {
		t.Fatalf("fault report = %+v, want 2 crashes", rep.Faults)
	}
	if rep.Faults.TxnsFailed == 0 {
		t.Error("two mid-run crashes under MS-SR failed no transactions")
	}
	for _, e := range c.Edges() {
		if n := e.Locks.Outstanding(); n != 0 {
			t.Errorf("edge %s leaked %d locks after crashes under MS-SR", e.Spec.ID, n)
		}
	}
	if err := c.Injector().VerifyDurability(); err != nil {
		t.Errorf("durability violated: %v", err)
	}
}

// Coordinator crash points: after-prepare must presume abort (no decision
// was durable), after-decision must commit (the decision was durable even
// though phase 2 never ran).
func TestClusterFaultsCoordinatorCrashPoints(t *testing.T) {
	for _, tc := range []struct {
		name  string
		point twopc.TwoPCPoint
	}{
		{"after-prepare", twopc.PointAfterPrepare},
		{"after-decision", twopc.PointAfterDecision},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewSim()
			plan := &faults.Plan{
				TwoPC: []faults.TwoPCCrash{
					{Edge: 0, Point: tc.point, Round: 1, RestartAfter: time.Second},
				},
			}
			c, err := New(faultyConfig(clk, twopc.MSIA, plan))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rep := c.Run()
			f := rep.Faults
			if f.Crashes != 1 || f.Restarts != 1 {
				t.Fatalf("crashes/restarts = %d/%d, want 1/1", f.Crashes, f.Restarts)
			}
			if f.InDoubt == 0 {
				t.Fatal("a coordinator crash mid-round must leave participants in doubt")
			}
			switch tc.point {
			case twopc.PointAfterPrepare:
				if f.InDoubtAborted == 0 {
					t.Errorf("after-prepare crash: want presumed aborts, got %+v", f.Counters)
				}
				if f.TxnsFailed == 0 {
					t.Error("after-prepare crash failed no transaction")
				}
			case twopc.PointAfterDecision:
				if f.InDoubtCommitted == 0 {
					t.Errorf("after-decision crash: the durable decision must commit the in-doubt blocks, got %+v", f.Counters)
				}
			}
			if err := c.Injector().VerifyDurability(); err != nil {
				t.Errorf("durability violated: %v", err)
			}
			for _, e := range c.Edges() {
				if n := e.Locks.Outstanding(); n != 0 {
					t.Errorf("edge %s leaked %d locks", e.Spec.ID, n)
				}
			}
		})
	}
}

// Two fault-injected runs with the same seed and plan must be
// byte-identical — crashes, recoveries, and all — race detector or not:
// the virtual clock runs one participant at a time, so no real-time
// interleaving is left for its instrumentation to perturb.
func TestClusterFaultsDeterministic(t *testing.T) {
	for _, proto := range []twopc.Protocol{twopc.MSIA, twopc.MSSR} {
		t.Run(proto.String(), func(t *testing.T) {
			run := func() string {
				rep, err := Run(faultyConfig(vclock.NewSim(), proto, crashPlan()))
				if err != nil {
					t.Fatal(err)
				}
				return rep.Format()
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("fault-injected runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
		})
	}
}

// A Zipf-skewed sharded workload must still run (hot shards under faults
// are the stress the ROADMAP asks for) and stay deterministic.
func TestClusterFaultsZipfWorkload(t *testing.T) {
	cfg := faultyConfig(vclock.NewSim(), twopc.MSIA, crashPlan())
	cfg.ZipfSkew = 1.3
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 160 || rep.TwoPC.CrossEdgeCommits == 0 {
		t.Fatalf("zipf fleet: frames=%d 2pc=%+v", rep.Frames, rep.TwoPC)
	}
}

// Overlapping events on one edge (a 2PC-point crash while a scheduled
// EdgeCrash also targets it) must not double-recover: whichever event
// crashes the edge owns the restart, and the run still ends healed.
func TestClusterFaultsOverlappingCrashEvents(t *testing.T) {
	plan := &faults.Plan{
		TwoPC: []faults.TwoPCCrash{
			{Edge: 1, Point: twopc.PointParticipantPrepared, Round: 1, RestartAfter: 3 * time.Second},
		},
		Crashes: []faults.EdgeCrash{
			{Edge: 1, At: time.Second, RestartAfter: 500 * time.Millisecond},
		},
	}
	clk := vclock.NewSim()
	c, err := New(faultyConfig(clk, twopc.MSIA, plan))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := c.Run()
	f := rep.Faults
	if f.Restarts != f.Crashes {
		t.Errorf("restarts %d != crashes %d under overlapping events", f.Restarts, f.Crashes)
	}
	if err := c.Injector().VerifyDurability(); err != nil {
		t.Errorf("durability: %v", err)
	}
	for _, e := range c.Edges() {
		if n := e.Locks.Outstanding(); n != 0 {
			t.Errorf("edge %s leaked %d locks", e.Spec.ID, n)
		}
	}
}

// An empty fault plan is a no-op: no durability machinery, no fault
// report, and no implied sharding.
func TestClusterFaultsEmptyPlanIgnored(t *testing.T) {
	rep, err := Run(Config{
		Clock: vclock.NewSim(),
		Cameras: []CameraSpec{
			{ID: "a", Profile: video.ParkDog(), Seed: 11, Frames: 20},
		},
		Edges:   []EdgeSpec{{ID: "west"}},
		Batcher: BatcherConfig{MaxBatch: 4, SLO: 80 * time.Millisecond},
		Faults:  &faults.Plan{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != nil {
		t.Errorf("empty plan produced a fault report: %+v", rep.Faults)
	}
	if rep.Sharded {
		t.Error("empty plan implied sharding")
	}
}

// A participant whose recovery completes while its coordinator is still
// mid-round (restart faster than the link round trip) must stay in doubt
// rather than presume abort — presuming abort there would half-commit the
// transaction the live coordinator is about to decide. The block resolves
// at the round's own phase-2 delivery (or at Finish), and VerifyDurability's
// cross-partition decision check proves no commit/abort split happened.
func TestClusterFaultsFastRestartStaysInDoubt(t *testing.T) {
	plan := &faults.Plan{
		TwoPC: []faults.TwoPCCrash{
			{Edge: 2, Point: twopc.PointParticipantPrepared, Round: 1, RestartAfter: time.Millisecond},
		},
	}
	clk := vclock.NewSim()
	c, err := New(faultyConfig(clk, twopc.MSIA, plan))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := c.Run()
	if rep.Faults.Crashes != 1 || rep.Faults.Restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d", rep.Faults.Crashes, rep.Faults.Restarts)
	}
	if err := c.Injector().VerifyDurability(); err != nil {
		t.Errorf("atomicity/durability violated: %v", err)
	}
	for _, e := range c.Edges() {
		if n := e.Locks.Outstanding(); n != 0 {
			t.Errorf("edge %s leaked %d locks", e.Spec.ID, n)
		}
	}
}
