package scenario

import (
	"strings"
	"testing"
	"time"
)

func twoEdgeScenario() *Scenario {
	return &Scenario{
		Version: 1,
		Name:    "test",
		Seed:    7,
		Topology: Topology{
			Edges: []Edge{{ID: "north"}, {ID: "south", Speed: 0.45}},
			Cameras: []Camera{
				{ID: "cam0", Profile: "street-vehicles", Edge: "north", Frames: 40},
				{ID: "cam1", Profile: "park-dog", Edge: "south", Frames: 40},
			},
			Sharded:           true,
			CrossEdgeFraction: 0.25,
			Batcher:           Batcher{MaxBatch: 8, SLO: Duration(80 * time.Millisecond)},
		},
		Timeline: []Event{
			{At: Duration(5 * time.Second), Do: KindMigrateCamera, Camera: "cam0", To: "south"},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := twoEdgeScenario()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decoding own encoding: %v\n%s", err, data)
	}
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", data, data2)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"missing version", `{"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}]}}`, "version"},
		{"future version", `{"version":99,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}]}}`, "version 99"},
		{"unknown field", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}],"bogus":1}}`, "bogus"},
		{"unknown profile", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"nope"}]}}`, "unknown profile"},
		{"unknown event kind", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}]},"timeline":[{"at":"1s","do":"explode"}]}`, "unknown event kind"},
		{"unknown camera ref", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}]},"timeline":[{"at":"1s","do":"camera_leave","camera":"ghost"}]}`, "unknown camera"},
		{"bad duration", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}]},"timeline":[{"at":"soon","do":"camera_leave","camera":"c"}]}`, "bad duration"},
		// Knobs that used to validate and then panic or fail in cluster.New.
		{"negative slots", `{"version":1,"topology":{"edges":[{"id":"e","slots":-1}],"cameras":[{"id":"c","profile":"park-dog"}]}}`, "slots"},
		{"negative speed", `{"version":1,"topology":{"edges":[{"id":"e","speed":-1}],"cameras":[{"id":"c","profile":"park-dog"}]}}`, "speed"},
		{"negative max_batch", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}],"batcher":{"max_batch":-1}}}`, "batcher"},
		{"negative max_pending", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}],"batcher":{"max_pending":-1}}}`, "batcher"},
		{"negative slo", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}],"batcher":{"slo":"-1ms"}}}`, "batcher"},
		{"negative cloud_speed", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}],"batcher":{"cloud_speed":-1}}}`, "batcher"},
		{"max_pending below max_batch", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}],"batcher":{"max_pending":2}}}`, "never fill"},
		{"theta_l above theta_u", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog"}],"theta_l":0.7,"theta_u":0.5}}`, "theta_l"},
		{"unknown partition", `{"version":1,"topology":{"edges":[{"id":"e"}],"cameras":[{"id":"c","profile":"park-dog","edge":"e"}],"partition":"key"}}`, "unknown partition"},
		{"migrate under per-edge shards", `{"version":1,"topology":{"edges":[{"id":"e"},{"id":"f"}],"cameras":[{"id":"c","profile":"park-dog","edge":"e"}],"partition":"edge"},"timeline":[{"at":"1s","do":"migrate_camera","camera":"c","to":"f"}]}`, "migrate_camera"},
		{"retire under per-edge shards", `{"version":1,"topology":{"edges":[{"id":"e"},{"id":"f"}],"cameras":[{"id":"c","profile":"park-dog","edge":"e"}],"partition":"edge"},"timeline":[{"at":"1s","do":"edge_retire","edge":"e"}]}`, "edge_retire"},
	}
	for _, tc := range cases {
		_, err := Decode([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateFaultGating(t *testing.T) {
	// 2PC crashes need durable partitions: an unsharded scenario must get
	// a clear error, not a silent upgrade.
	s := &Scenario{
		Topology: Topology{
			Edges:   []Edge{{ID: "a"}, {ID: "b"}},
			Cameras: []Camera{{ID: "c", Profile: "park-dog"}},
		},
		Timeline: []Event{{At: Duration(time.Second), Do: KindTwoPCCrash, Edge: "a", Point: PointAfterPrepare}},
	}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "durable partitions") {
		t.Fatalf("unsharded twopc_crash: got %v, want durable-partitions error", err)
	}

	// Edge-to-edge link faults need peer links (sharded); the cloud
	// uplink variant is fine on any fleet.
	s.Timeline = []Event{{At: Duration(time.Second), Do: KindLinkFault, A: "a", B: "b"}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("unsharded edge link_fault: got %v, want sharded-fleet error", err)
	}
	s.Timeline = []Event{{At: Duration(time.Second), Do: KindLinkFault, A: "a", B: "cloud"}}
	if err := s.Validate(); err != nil {
		t.Fatalf("cloud link fault on unsharded fleet should validate, got %v", err)
	}

	// Plain edge crashes are allowed on unsharded fleets (the ROADMAP's
	// "fault plans for the unsharded fleet").
	s.Timeline = []Event{{At: Duration(time.Second), Do: KindEdgeCrash, Edge: "a", RestartAfter: Duration(time.Second)}}
	if err := s.Validate(); err != nil {
		t.Fatalf("unsharded edge_crash should validate, got %v", err)
	}
}

func TestValidateShardedNeedsPinnedCameras(t *testing.T) {
	s := &Scenario{
		Topology: Topology{
			Edges:   []Edge{{ID: "a"}},
			Cameras: []Camera{{ID: "c", Profile: "park-dog"}},
			Sharded: true,
		},
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "needs an edge") {
		t.Fatalf("sharded scenario with unpinned camera: got %v", err)
	}
}

func TestValidateJoinOrdering(t *testing.T) {
	s := twoEdgeScenario()
	s.Timeline = []Event{
		{At: Duration(10 * time.Second), Do: KindCameraJoin, Join: &Camera{ID: "late", Profile: "park-dog", Edge: "north", Frames: 10}},
		{At: Duration(5 * time.Second), Do: KindCameraLeave, Camera: "late"},
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "before it joins") {
		t.Fatalf("leave-before-join: got %v", err)
	}
}
