package cluster

import (
	"strings"
	"testing"
	"time"

	"croesus/internal/faults"
	"croesus/internal/node"
	"croesus/internal/twopc"
	"croesus/internal/vclock"
)

// depth3Graph is the linear edge → peer → cloud graph the graph tests
// share: three sections, the middle one hopping the inter-edge mesh.
func depth3Graph() *node.GraphSpec {
	return &node.GraphSpec{Nodes: []node.GraphNodeSpec{
		{Name: "detect", Tier: "edge"},
		{Name: "classify", Tier: "peer"},
		{Name: "verify", Tier: "cloud"},
	}}
}

// TestGraphCanonicalEquivalence pins the normalisation of the explicit
// default spec: GraphSpec.Compile turns {edge},{cloud} into "no graph
// block", so declaring it must produce the byte-identical report of a
// config without one — thresholded forwarding into the shared batcher, no
// per-section block.
func TestGraphCanonicalEquivalence(t *testing.T) {
	run := func(g *node.GraphSpec) string {
		cfg := shardedConfig(vclock.NewSim(), 0.4, twopc.MSIA)
		cfg.Graph = g
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return c.Run().Format()
	}
	plain := run(nil)
	explicit := run(&node.GraphSpec{Nodes: []node.GraphNodeSpec{
		{Tier: "edge"}, {Tier: "cloud", Model: node.ModelYOLO416},
	}})
	if plain != explicit {
		t.Errorf("explicit default two-stage spec diverged from no-graph run:\n--- no graph\n%s\n--- explicit spec\n%s", plain, explicit)
	}
	if strings.Contains(plain, "section 0") {
		t.Errorf("a fleet that declares no graph printed a per-section block:\n%s", plain)
	}
}

// TestGraphDepth3EndToEnd runs the three-section graph on a sharded fleet
// under MS-IA: every frame must cross all three boundaries (per-section
// report rows present and ordered), the peer hop must charge real time,
// and the fleet's corrections prove later boundaries rewrote earlier ones.
func TestGraphDepth3EndToEnd(t *testing.T) {
	cfg := shardedConfig(vclock.NewSim(), 0.4, twopc.MSIA)
	cfg.Graph = depth3Graph()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := c.Run()

	if rep.Frames != 160 {
		t.Fatalf("frames = %d, want 160", rep.Frames)
	}
	if len(rep.Sections) != 3 {
		t.Fatalf("section rows = %d, want 3", len(rep.Sections))
	}
	for k, s := range rep.Sections {
		if s.Index != k {
			t.Errorf("section row %d has index %d", k, s.Index)
		}
		if s.LatencyP50 <= 0 {
			t.Errorf("section %d latency p50 = %s, want > 0", k, s.LatencyP50)
		}
		if k > 0 && s.LatencyP50 < rep.Sections[k-1].LatencyP50 {
			t.Errorf("section %d p50 %s below section %d p50 %s — boundaries are ordered in time",
				k, s.LatencyP50, k-1, rep.Sections[k-1].LatencyP50)
		}
	}
	if rep.Sections[1].MeanHop <= 0 {
		t.Error("peer section charged no mesh hop")
	}
	if rep.Sections[2].MeanHop <= 0 {
		t.Error("cloud section charged no uplink hop")
	}
	if rep.TxnsTriggered == 0 || rep.Corrections == 0 {
		t.Errorf("graph run triggered %d txns with %d corrections — later boundaries never rewrote earlier ones",
			rep.TxnsTriggered, rep.Corrections)
	}
	if rep.TwoPC.CrossEdgeCommits == 0 {
		t.Error("cross-edge workload produced no cross-edge commits through the graph")
	}
}

// TestGraphDeterminism: same seed, same graph, byte-identical report —
// the determinism contract extended to the N-section executor.
func TestGraphDeterminism(t *testing.T) {
	run := func() string {
		cfg := shardedConfig(vclock.NewSim(), 0.4, twopc.MSIA)
		cfg.Graph = depth3Graph()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return c.Run().Format()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("graph fleet not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestGraphCrossEdgeRetractionWithCrash is the satellite acceptance run:
// a three-section graph on a sharded fleet where cross-edge sections
// retract through twopc partitions, with a participant crash at the
// MIDDLE boundary's 2PC round and an edge crash between boundaries. The
// WAL must replay every (txn, round) record to a clean resolution:
// retractions recorded, no in-doubt leftovers, VerifyDurability clean, no
// leaked locks.
func TestGraphCrossEdgeRetractionWithCrash(t *testing.T) {
	cfg := shardedConfig(vclock.NewSim(), 0.4, twopc.MSIA)
	cfg.Graph = depth3Graph()
	cfg.Faults = &faults.Plan{
		TwoPC: []faults.TwoPCCrash{
			// Round 1 is the middle section's boundary commit: the
			// participant dies after voting yes, between boundaries.
			{Edge: 2, Point: twopc.PointParticipantPrepared, Round: 1, RestartAfter: 600 * time.Millisecond},
		},
		Crashes: []faults.EdgeCrash{
			{Edge: 1, At: 4 * time.Second, RestartAfter: 1500 * time.Millisecond},
		},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := c.Run()

	if rep.Frames != 160 {
		t.Fatalf("frames = %d, want 160 (the fleet must finish through the faults)", rep.Frames)
	}
	st := c.FleetManager().Stats()
	if st.Retractions == 0 {
		t.Error("no retractions — the erroneous-label cascade never fired across the graph")
	}
	if st.SectionCommits == 0 {
		t.Error("no middle-boundary commits recorded")
	}
	f := rep.Faults
	if f == nil || f.Crashes < 2 || f.Restarts != f.Crashes {
		t.Fatalf("fault schedule did not run to a healed fleet: %+v", f)
	}
	if f.InDoubt != f.InDoubtCommitted+f.InDoubtAborted {
		t.Errorf("in-doubt accounting inconsistent: %+v", f)
	}
	if f.ReplayedRecords == 0 {
		t.Error("recovery replayed no WAL records")
	}
	if err := c.Injector().VerifyDurability(); err != nil {
		t.Errorf("durability violated: %v", err)
	}
	for _, e := range c.Edges() {
		if n := e.Locks.Outstanding(); n != 0 {
			t.Errorf("edge %s leaked %d locks", e.Spec.ID, n)
		}
	}
}

// TestGraphMSSRDepth3NoLeaks: MS-SR holds the union of every section's
// locks across the whole graph; the run must still end with zero
// outstanding locks and a deterministic report.
func TestGraphMSSRDepth3NoLeaks(t *testing.T) {
	cfg := shardedConfig(vclock.NewSim(), 0.4, twopc.MSSR)
	cfg.Graph = depth3Graph()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := c.Run()
	if rep.Frames != 160 {
		t.Fatalf("frames = %d, want 160", rep.Frames)
	}
	if len(rep.Sections) != 3 {
		t.Fatalf("section rows = %d, want 3", len(rep.Sections))
	}
	for _, e := range c.Edges() {
		if n := e.Locks.Outstanding(); n != 0 {
			t.Errorf("edge %s leaked %d locks", e.Spec.ID, n)
		}
	}
}
