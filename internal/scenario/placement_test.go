package scenario

import (
	"reflect"
	"testing"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/vclock"
)

// edgeCameras maps each edge ID to the cameras placed on it.
func edgeCameras(c *cluster.Cluster) map[string][]string {
	out := map[string][]string{}
	for _, e := range c.Edges() {
		out[e.Spec.ID] = append([]string{}, e.Cameras...)
	}
	return out
}

// TestPlacementCyclesEdges: unpinned cameras of an unsharded scenario cycle
// over the edges in declaration order; a pinned camera takes its edge and
// does not advance the cursor.
func TestPlacementCyclesEdges(t *testing.T) {
	s := &Scenario{
		Topology: Topology{
			Edges: []Edge{{ID: "a"}, {ID: "b"}, {ID: "c"}},
			Cameras: []Camera{
				{ID: "u0", Profile: "park-dog", Frames: 2},
				{ID: "u1", Profile: "park-dog", Frames: 2},
				{ID: "p", Profile: "park-dog", Frames: 2, Edge: "c"},
				{ID: "u2", Profile: "park-dog", Frames: 2},
				{ID: "u3", Profile: "park-dog", Frames: 2},
			},
		},
	}
	rt, err := New(s, vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Cluster.Close()
	want := map[string][]string{"a": {"u0", "u3"}, "b": {"u1"}, "c": {"p", "u2"}}
	if got := edgeCameras(rt.Cluster); !reflect.DeepEqual(got, want) {
		t.Fatalf("placement = %v, want %v", got, want)
	}
	if rep := rt.Run(); rep.Policy != "round-robin" {
		t.Errorf("report policy = %q, want round-robin", rep.Policy)
	}
}

// TestPlacementSkipsRetiredEdges: an unpinned camera_join after an
// edge_retire lands only on live edges, the cursor carrying on over them.
func TestPlacementSkipsRetiredEdges(t *testing.T) {
	s := &Scenario{
		Topology: Topology{
			Edges: []Edge{{ID: "a"}, {ID: "b"}, {ID: "c"}},
			Cameras: []Camera{
				{ID: "u0", Profile: "park-dog", Frames: 6},
				{ID: "u1", Profile: "street-vehicles", Frames: 6},
			},
		},
		Timeline: []Event{
			{At: Duration(time.Second), Do: KindEdgeRetire, Edge: "b"},
			{At: Duration(2 * time.Second), Do: KindCameraJoin, Join: &Camera{ID: "j0", Profile: "park-dog", Frames: 2}},
			{At: Duration(2 * time.Second), Do: KindCameraJoin, Join: &Camera{ID: "j1", Profile: "park-dog", Frames: 2}},
		},
	}
	rt, err := New(s, vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Cluster.Close()
	rep := rt.Run()
	if rep.Dynamic == nil || rep.Dynamic.Retired != 1 || rep.Dynamic.Joins != 2 {
		t.Fatalf("timeline did not run: %+v", rep.Dynamic)
	}
	got := edgeCameras(rt.Cluster)
	if len(got["b"]) != 0 {
		t.Errorf("retired edge b still hosts %v", got["b"])
	}
	// Two topology cameras advanced the cursor to 2; the live edges are
	// [a c], so the joins land on a, then c.
	for edge, cam := range map[string]string{"a": "j0", "c": "j1"} {
		found := false
		for _, id := range got[edge] {
			found = found || id == cam
		}
		if !found {
			t.Errorf("camera %s not on edge %s: placement %v", cam, edge, got)
		}
	}
}
