package fleet

import (
	"testing"
	"time"

	"croesus/internal/node"
	"croesus/internal/scenario"
	"croesus/internal/wire"
)

// TestControlRoundTrip exercises the control protocol end to end: dial,
// dispatch, op-specific JSON, unknown-op errors.
func TestControlRoundTrip(t *testing.T) {
	h := NewHandler("edge")
	h.On("echo", func(c wire.Control) (any, error) {
		return map[string]string{"path": c.Path}, nil
	})
	srv, err := ServeControl("127.0.0.1:0", h)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	ctl, err := DialControl(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()

	var ping struct {
		Role string `json:"role"`
	}
	if err := ctl.CallJSON(wire.Control{Op: OpPing}, 0, &ping); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if ping.Role != "edge" {
		t.Errorf("ping role = %q, want edge", ping.Role)
	}
	var echo struct {
		Path string `json:"path"`
	}
	if err := ctl.CallJSON(wire.Control{Op: "echo", Path: "cloud"}, 0, &echo); err != nil {
		t.Fatalf("echo: %v", err)
	}
	if echo.Path != "cloud" {
		t.Errorf("echo path = %q, want cloud", echo.Path)
	}
	r, err := ctl.Call(wire.Control{Op: "no-such-op"}, 0)
	if err != nil {
		t.Fatalf("unknown op transport error: %v", err)
	}
	if r.OK || r.Err == "" {
		t.Errorf("unknown op should fail with a remote error, got ok=%v err=%q", r.OK, r.Err)
	}
}

// TestValidateForFleet rejects what standalone processes cannot run, or
// would run differently from the sim: no flag carries an edge's speed or
// the per-operation cost to a croesus edge process.
func TestValidateForFleet(t *testing.T) {
	half, zipf := 0.5, 1.2
	for _, tc := range []struct {
		name string
		edit func(s *scenario.Scenario)
		ok   bool
	}{
		{"plain", func(*scenario.Scenario) {}, true},
		{"sharded", func(s *scenario.Scenario) { s.Topology.Sharded = true }, false},
		{"graph", func(s *scenario.Scenario) {
			s.Topology.Graph = &node.GraphSpec{Nodes: []node.GraphNodeSpec{{Tier: "edge"}, {Tier: "cloud"}}}
		}, false},
		{"edge crash", func(s *scenario.Scenario) {
			s.Timeline = []scenario.Event{{At: 1, Do: scenario.KindEdgeCrash, Edge: "e0"}}
		}, true},
		{"edge↔edge link fault", func(s *scenario.Scenario) {
			s.Topology.Sharded = true
			s.Timeline = []scenario.Event{{At: 1, Do: scenario.KindLinkFault, A: "e0", B: "e1"}}
		}, false},
		{"edge speed 1", func(s *scenario.Scenario) { s.Topology.Edges[0].Speed = 1 }, true},
		{"edge speed 0.5", func(s *scenario.Scenario) { s.Topology.Edges[1].Speed = 0.5 }, false},
		{"op_cost", func(s *scenario.Scenario) { s.Topology.OpCost = scenario.Duration(time.Millisecond) }, false},
		{"rate shift", func(s *scenario.Scenario) {
			s.Timeline = []scenario.Event{{At: 1, Do: scenario.KindWorkloadShift, Rate: &half}}
		}, true},
		{"key-shape shift", func(s *scenario.Scenario) {
			s.Topology.Durable = true
			s.Timeline = []scenario.Event{{At: 1, Do: scenario.KindWorkloadShift, ZipfSkew: &zipf}}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scenario.Scenario{
				Topology: scenario.Topology{
					Edges:   []scenario.Edge{{ID: "e0"}, {ID: "e1"}},
					Cameras: []scenario.Camera{{ID: "a", Profile: "park-dog", Edge: "e0"}},
				},
			}
			tc.edit(s)
			if err := ValidateForFleet(s); (err == nil) != tc.ok {
				t.Errorf("ValidateForFleet = %v, want ok = %v", err, tc.ok)
			}
		})
	}
}
