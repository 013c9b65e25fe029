// Cityfleet: a city operations center runs six cameras — two traffic
// corridors, two pedestrian crossings, a mall, and a park — across two
// edge nodes that share one batched cloud validator.
//
// The example is written against the scenario API: each run is a
// declarative Scenario — a topology plus a clock-ordered timeline — so
// "the south cabinet loses power", "the north corridor camera is re-homed
// to the south cabinet mid-shift", and "rush hour doubles the crossing
// traffic" are data, not code. The last scenario is also printed as its
// JSON encoding, which is exactly what `croesus-cluster -scenario` runs.
//
// Every scenario also runs unmodified on a wall clock, where the fleet's
// goroutines truly overlap, with -timescale:
//
//	go run ./examples/cityfleet
//	go run ./examples/cityfleet -timescale 0.05
package main

import (
	"flag"
	"fmt"
	"os"

	"croesus"
)

var opts croesus.ScenarioOptions

func cameras() []croesus.ScenarioCamera {
	return []croesus.ScenarioCamera{
		// The slow south cabinet (0.45× speed) carries two streams; the
		// fast north one carries four — a speed-weighted layout, made
		// explicit by the declarative topology's edge pins.
		{ID: "corridor-n", Profile: "street-vehicles", Seed: 101, Frames: 100, Edge: "north"},
		{ID: "corridor-s", Profile: "street-vehicles", Seed: 102, Frames: 100, Edge: "north"},
		{ID: "crossing-e", Profile: "street-person", Seed: 103, Frames: 100, Edge: "north"},
		{ID: "crossing-w", Profile: "street-person", Seed: 104, Frames: 100, Edge: "south"},
		{ID: "mall", Profile: "mall-person", Seed: 105, Frames: 100, Edge: "north"},
		{ID: "park", Profile: "park-dog", Seed: 106, Frames: 100, Edge: "south"},
	}
}

func topology(batcher croesus.ScenarioBatcher) croesus.ScenarioTopology {
	return croesus.ScenarioTopology{
		Edges: []croesus.ScenarioEdge{
			{ID: "north", Speed: 1.0},
			{ID: "south", Speed: 0.45},
		},
		Cameras: cameras(),
		Batcher: batcher,
	}
}

func run(s *croesus.Scenario) *croesus.ClusterReport {
	rep, err := croesus.RunScenarioWith(s, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("--- %s ---\n%s\n", s.Name, rep.Format())
	return rep
}

func ms(d int64) croesus.ScenarioDuration  { return croesus.ScenarioDuration(d * 1e6) }
func sec(d int64) croesus.ScenarioDuration { return croesus.ScenarioDuration(d * 1e9) }

func main() {
	flag.Float64Var(&opts.TimeScale, "timescale", 0,
		"0: virtual clock, deterministic; > 0: wall clock with modeled latencies multiplied by this")
	flag.Parse()

	// A healthy cloud: batches form under the SLO, nothing is shed.
	run(&croesus.Scenario{
		Name:     "healthy cloud",
		Topology: topology(croesus.ScenarioBatcher{MaxBatch: 8, SLO: ms(80)}),
	})

	// The same fleet against a starved cloud GPU (7× slower, tiny
	// admission cap): the batcher sheds the lowest-confidence-margin
	// frames, which finalize with their edge labels — accuracy dips,
	// but every client still gets both commits and the flush SLO holds.
	run(&croesus.Scenario{
		Name: "starved cloud (overload)",
		Topology: topology(croesus.ScenarioBatcher{
			MaxBatch: 4, SLO: ms(60), MaxPending: 6, CloudSpeed: 0.15,
		}),
	})

	// One city-wide database sharded across the cabinets — every camera
	// owns a logical shard, a quarter of each transaction's keys belong
	// to another shard (remote locks, 2PC commits) — put through a full
	// operational day in one timeline:
	//
	//   t=10s  the south cabinet loses power mid-shift; its write-ahead
	//          log brings the partition back 4s later, and a scripted
	//          participant crash right after a 2PC yes vote resolves
	//          from the coordinator's log,
	//   t=20s  rush hour: the crossings double their capture rate and
	//          their queries go 50% cross-shard,
	//   t=25s  the operations center re-homes corridor-n to the south
	//          cabinet — a live migration: its shard's keys hand over
	//          inside a 2PC while in-flight transactions finish on the
	//          old epoch or retry on the new map,
	//   t=30s  a pop-up event camera joins the north cabinet,
	//   t=40s  it packs up and leaves,
	//   t=45s  the south cabinet is decommissioned for the night — a
	//          graceful retirement: its cameras (and their shards) drain
	//          back to north through live migrations, then the cabinet
	//          leaves the placement pool for good.
	half, double := 0.5, 2.0
	day := &croesus.Scenario{
		Name: "city day (power loss, rush hour, live migration)",
		Seed: 42,
		Topology: func() croesus.ScenarioTopology {
			t := topology(croesus.ScenarioBatcher{MaxBatch: 8, SLO: ms(80)})
			t.CrossEdgeFraction = 0.25
			t.CheckpointEvery = sec(15)
			return t
		}(),
		Timeline: []croesus.ScenarioEvent{
			{At: sec(10), Do: croesus.EventEdgeCrash, Edge: "south", RestartAfter: sec(4)},
			{At: sec(12), Do: croesus.EventTwoPCCrash, Edge: "south",
				Point: croesus.ScenarioPointParticipantPrepared, Round: 1, RestartAfter: sec(2)},
			{At: sec(20), Do: croesus.EventWorkloadShift, Camera: "crossing-e", Rate: &double, CrossEdgeFraction: &half},
			{At: sec(20), Do: croesus.EventWorkloadShift, Camera: "crossing-w", Rate: &double, CrossEdgeFraction: &half},
			{At: sec(25), Do: croesus.EventMigrateCamera, Camera: "corridor-n", To: "south"},
			{At: sec(30), Do: croesus.EventCameraJoin,
				Join: &croesus.ScenarioCamera{ID: "popup", Profile: "mall-person", Seed: 107, Frames: 20, Edge: "north"}},
			{At: sec(40), Do: croesus.EventCameraLeave, Camera: "popup"},
			{At: sec(45), Do: croesus.EventEdgeRetire, Edge: "south"},
		},
	}
	run(day)

	if data, err := day.Encode(); err == nil {
		fmt.Println("--- the city-day scenario as croesus-cluster -scenario input ---")
		os.Stdout.Write(data)
		fmt.Println()
	}

	fmt.Println("Overload costs accuracy on the least ambiguous frames, never")
	fmt.Println("availability: shed frames keep their initial edge answer, exactly")
	fmt.Println("the degradation mode Croesus' multi-stage transactions permit.")
	fmt.Println("With the keyspace sharded, cross-edge transactions keep the same")
	fmt.Println("guarantees through every timeline event: a cabinet power loss")
	fmt.Println("recovers from the write-ahead log with in-doubt 2PC state resolved")
	fmt.Println("against the coordinator's log, and a live camera migration hands")
	fmt.Println("its shard over atomically — no key lost, duplicated, or served by")
	fmt.Println("two epochs at once — while the fleet keeps serving.")
}
