package cluster

import (
	"reflect"
	"testing"
	"time"

	"croesus/internal/twopc"
	"croesus/internal/vclock"
	"croesus/internal/video"
	"croesus/internal/workload"
)

// shardedConfig builds the canonical sharded test fleet: four cameras
// over three edges, one database sharded three ways.
func shardedConfig(clk vclock.Clock, crossEdge float64, proto twopc.Protocol) Config {
	return Config{
		Clock: clk,
		Cameras: []CameraSpec{
			{ID: "park", Profile: video.ParkDog(), Seed: 11, Frames: 40},
			{ID: "street", Profile: video.StreetVehicles(), Seed: 12, Frames: 40},
			{ID: "mall", Profile: video.MallSurveillance(), Seed: 13, Frames: 40},
			{ID: "airport", Profile: video.AirportRunway(), Seed: 14, Frames: 40},
		},
		Edges:             []EdgeSpec{{ID: "west"}, {ID: "mid"}, {ID: "east"}},
		Batcher:           BatcherConfig{MaxBatch: 4, SLO: 80 * time.Millisecond},
		Sharded:           true,
		CrossEdgeFraction: crossEdge,
		Protocol:          proto,
	}
}

// TestShardedCrossEdge runs a fleet whose workload crosses shards and
// checks that the 2PC machinery actually engaged: cross-edge commits,
// prepare/commit RPCs, peer-link traffic, and every key resting on the
// store of the shard that owns it.
func TestShardedCrossEdge(t *testing.T) {
	clk := vclock.NewSim()
	c, err := New(shardedConfig(clk, 0.4, twopc.MSIA))
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run()

	if rep.Frames != 160 {
		t.Fatalf("fleet frames = %d, want 160", rep.Frames)
	}
	if !rep.Sharded || rep.Protocol != "MS-IA" {
		t.Fatalf("report not marked sharded MS-IA: %+v", rep)
	}
	tp := rep.TwoPC
	if tp.CrossEdgeCommits == 0 || tp.TwoPCRounds == 0 {
		t.Fatalf("no cross-edge 2PC activity despite CrossEdgeFraction 0.4: %+v", tp)
	}
	if tp.PrepareRPCs < 2*tp.TwoPCRounds {
		t.Errorf("prepare RPCs %d below 2 per round (%d rounds): every round spans ≥2 partitions", tp.PrepareRPCs, tp.TwoPCRounds)
	}
	if tp.CommitRPCs == 0 || tp.LockRPCs == 0 {
		t.Errorf("no commit/lock RPCs crossed edges: %+v", tp)
	}
	if tp.LocalCommits == 0 {
		t.Errorf("no local commits — home-biased workload should keep most sections single-shard: %+v", tp)
	}

	// Cross-edge protocol traffic rode the peer links.
	var peerMsgs int64
	for _, e := range c.Edges() {
		for _, l := range e.Peers {
			if l == nil {
				continue
			}
			_, m := l.Traffic()
			peerMsgs += m
		}
	}
	if peerMsgs == 0 {
		t.Error("no messages on inter-edge links")
	}

	// Every key on every edge's store belongs to that edge's shard.
	for i, e := range c.Edges() {
		keys := e.Store.Keys("")
		if len(keys) == 0 {
			t.Errorf("edge %d store empty — sharding routed nothing here", i)
		}
		for _, k := range keys {
			if s, ok := workload.ShardOf(k); !ok || s != i {
				t.Fatalf("edge %d store holds foreign key %q", i, k)
			}
		}
	}

	// One fleet-wide manager, and the multi-stage guarantee holds on it.
	st := c.FleetManager().Stats()
	if st.InitialCommits == 0 {
		t.Fatal("fleet manager saw no commits")
	}
	if unresolved := st.InitialCommits - st.FinalCommits; unresolved < 0 || unresolved > st.Retractions {
		t.Errorf("multi-stage guarantee violated fleet-wide: %+v", st)
	}
}

// TestShardedHomeOnly: CrossEdgeFraction 0 keeps every transaction on its
// home shard — the sharded machinery runs but no 2PC and no peer traffic.
func TestShardedHomeOnly(t *testing.T) {
	clk := vclock.NewSim()
	c, err := New(shardedConfig(clk, 0, twopc.MSIA))
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run()
	tp := rep.TwoPC
	if tp.CrossEdgeCommits != 0 || tp.RemoteCommits != 0 || tp.TwoPCRounds != 0 || tp.PrepareRPCs != 0 || tp.LockRPCs != 0 {
		t.Fatalf("home-only workload produced distributed work: %+v", tp)
	}
	if tp.LocalCommits == 0 {
		t.Fatal("no local commits counted")
	}
	for _, e := range c.Edges() {
		for _, l := range e.Peers {
			if l == nil {
				continue
			}
			if _, m := l.Traffic(); m != 0 {
				t.Fatalf("peer link carried %d messages in a home-only fleet", m)
			}
		}
	}
}

// TestShardedDeterminism: two runs with the same seed and config must
// produce byte-identical reports, including every 2PC counter — the
// virtual-clock concurrency guard for the sharded fleet.
func TestShardedDeterminism(t *testing.T) {
	run := func(proto twopc.Protocol) *ClusterReport {
		rep, err := Run(shardedConfig(vclock.NewSim(), 0.3, proto))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, proto := range []twopc.Protocol{twopc.MSIA, twopc.MSSR} {
		a, b := run(proto), run(proto)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two identical sharded runs diverged:\n%s\nvs\n%s", proto, a.Format(), b.Format())
		}
		if a.Format() != b.Format() {
			t.Fatalf("%s: formatted reports differ", proto)
		}
	}
}

// TestUnshardedMSSR: the Protocol knob also applies to unsharded fleets —
// per-edge managers with local MS-SR (wait-die, locks held across the
// cloud round trip) must drain every frame without deadlock and with no
// distributed work counted.
func TestUnshardedMSSR(t *testing.T) {
	cfg := shardedConfig(vclock.NewSim(), 0, twopc.MSSR)
	cfg.Sharded = false
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 160 {
		t.Fatalf("fleet lost frames: %d of 160", rep.Frames)
	}
	if rep.Sharded {
		t.Fatal("report claims a sharded fleet")
	}
	if rep.TwoPC != (twopc.DistCounters{}) {
		t.Fatalf("unsharded fleet counted distributed work: %+v", rep.TwoPC)
	}
	if rep.TxnsTriggered == 0 {
		t.Fatal("no transactions ran under unsharded MS-SR")
	}
}

// TestShardedProtocolContrast: under the same cross-edge workload, MS-IA
// pays an atomic commitment at both section commits while MS-SR pays one
// at the final — so MS-IA runs strictly more 2PC rounds. Both must drain
// the fleet completely.
func TestShardedProtocolContrast(t *testing.T) {
	run := func(proto twopc.Protocol) *ClusterReport {
		rep, err := Run(shardedConfig(vclock.NewSim(), 0.5, proto))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Frames != 160 {
			t.Fatalf("%s: fleet lost frames: %d of 160", proto, rep.Frames)
		}
		return rep
	}
	msia := run(twopc.MSIA)
	mssr := run(twopc.MSSR)
	if msia.TwoPC.TwoPCRounds <= mssr.TwoPC.TwoPCRounds {
		t.Errorf("MS-IA rounds %d not above MS-SR rounds %d (two commits vs one)",
			msia.TwoPC.TwoPCRounds, mssr.TwoPC.TwoPCRounds)
	}
	if mssr.TwoPC.CrossEdgeCommits == 0 {
		t.Error("MS-SR ran no cross-edge commits")
	}
}
