package croesus

// Integration tests exercising the public facade exactly the way the
// examples and a downstream user would.

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFacadePipelineEndToEnd(t *testing.T) {
	clk := NewSimClock()
	sys := NewSystem(clk)
	cloud := YOLOv3Sim(YOLO416, 42)
	p, err := NewPipeline(Config{
		Clock:      clk,
		EdgeModel:  TinyYOLOSim(42),
		CloudModel: cloud,
		ThetaL:     0.40,
		ThetaU:     0.62,
		Source:     NewWorkloadSource(500, 7),
		CC:         sys.MSIA(),
		Mgr:        sys.Manager,
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	prof := ParkDog()
	frames := NewVideoGenerator(prof, 11).Generate(30)
	outs := p.ProcessVideo(frames)
	truth := TruthFromModel(cloud, frames)
	sum := Summarize(prof.Name, ModeCroesus, prof.QueryClass, outs, truth, 0.10)

	if sum.Frames != 30 {
		t.Fatalf("frames = %d", sum.Frames)
	}
	if sum.BU <= 0 || sum.BU >= 1 {
		t.Errorf("BU = %.2f, want partial validation", sum.BU)
	}
	if sum.F1Final <= sum.F1Initial {
		t.Errorf("final F %.3f not above initial F %.3f — corrections had no effect", sum.F1Final, sum.F1Initial)
	}
	if sum.MeanInitialLatency >= sum.MeanFinalLatency {
		t.Error("initial commit must precede final commit")
	}
	// Every initial commit must be resolved: finally committed, or
	// terminally retracted by a cascade from an erroneous transaction.
	st := sys.Manager.Stats()
	if st.InitialCommits == 0 {
		t.Error("no transactions committed")
	}
	if unresolved := st.InitialCommits - st.FinalCommits; unresolved < 0 || unresolved > st.Retractions {
		t.Errorf("multi-stage guarantee violated: %+v", st)
	}
}

func TestFacadeMultiStageTxn(t *testing.T) {
	clk := NewSimClock()
	sys := NewSystem(clk)
	cc := sys.MSSRWait()
	sys.Store.Put("k", Value("v0"))

	tx := &Txn{
		Name:      "demo",
		InitialRW: RWSet{Reads: []string{"k"}},
		FinalRW:   RWSet{Writes: []string{"k"}},
		Initial: func(c *TxnCtx) error {
			if _, ok := c.Get("k"); !ok {
				return errors.New("missing key")
			}
			return nil
		},
		Final: func(c *TxnCtx) error {
			c.Put("k", Value("v1"))
			return nil
		},
	}
	inst := sys.Manager.NewInstance(tx, nil)
	clk.Run(func() {
		if err := cc.RunInitial(inst); err != nil {
			t.Errorf("initial: %v", err)
		}
		clk.Sleep(100 * time.Millisecond)
		if err := cc.RunFinal(inst); err != nil {
			t.Errorf("final: %v", err)
		}
	})
	if v, _ := sys.Store.Get("k"); string(v) != "v1" {
		t.Errorf("k = %q", v)
	}
}

func TestFacadeThresholdSolvers(t *testing.T) {
	prof := StreetVehicles()
	frames := NewVideoGenerator(prof, 11).Generate(80)
	ev := NewThresholdEvaluator(frames, TinyYOLOSim(42), YOLOv3Sim(YOLO416, 42), prof.QueryClass, 0.10)
	bf := BruteForceThresholds(ev, 0.8, 0.1)
	gd := GradientThresholds(ev, 0.8)
	if !bf.Feasible || !gd.Feasible {
		t.Fatalf("solvers infeasible: %v %v", bf, gd)
	}
	if len(ThresholdHeatmap(ev, 0.2)) == 0 {
		t.Error("empty heatmap")
	}
}

func TestFacadeDistributed(t *testing.T) {
	clk := NewSimClock()
	edges := []*System{NewSystem(clk), NewSystem(clk), NewSystem(clk)}
	parts := make([]*PartitionNode, len(edges))
	for i, e := range edges {
		parts[i] = NewPartitionOver(i, e.Store, e.Locks)
	}
	// "x:<n>" lives on partition n.
	route := func(key string) int { return int(key[2] - '0') }
	mgr := edges[0].Manager
	mgr.DB = &ShardedStore{Parts: parts, Partitioner: route}
	cc := &ShardedCC{
		Clk: clk, M: mgr, Home: 0, Parts: parts,
		Links:       []TransportPath{nil, EdgeCloudSameSite(), EdgeCloudSameSite()},
		Partitioner: route, Protocol: DistMSIA, Stats: &DistStats{},
	}
	dt := &Txn{
		Name:      "d",
		InitialRW: RWSet{Writes: []string{"x:1", "x:2"}},
		FinalRW:   RWSet{Writes: []string{"x:1"}},
		Initial: func(c *TxnCtx) error {
			c.Put("x:1", Value("a"))
			c.Put("x:2", Value("b"))
			return nil
		},
		Final: func(c *TxnCtx) error { c.Put("x:1", Value("z")); return nil },
	}
	clk.Run(func() {
		in := mgr.NewInstance(dt, nil)
		if err := cc.RunInitial(in); err != nil {
			t.Errorf("RunInitial: %v", err)
		}
		if err := cc.RunFinal(in); err != nil {
			t.Errorf("RunFinal: %v", err)
		}
	})
	if v, _ := edges[1].Store.Get("x:1"); string(v) != "z" {
		t.Errorf("x:1 on edge 1 = %q, want z", v)
	}
	if v, _ := edges[2].Store.Get("x:2"); string(v) != "b" {
		t.Errorf("x:2 on edge 2 = %q, want b", v)
	}
	// The initial commit spans two partitions (one 2PC round); the final
	// writes one remote partition (a single commit message, no round).
	if st := cc.Stats.Snapshot(); st.TwoPCRounds != 1 || st.RemoteCommits != 1 {
		t.Errorf("rounds/remote commits = %d/%d, want 1/1", st.TwoPCRounds, st.RemoteCommits)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	tab, ok := RunExperiment("figure6b", ExperimentOpts{Frames: 30, GridStep: 0.2})
	if !ok {
		t.Fatal("figure6b missing")
	}
	if len(tab.Rows) == 0 || tab.Format() == "" || tab.Markdown() == "" {
		t.Error("experiment table empty or unrenderable")
	}
	if _, ok := RunExperiment("not-an-experiment", ExperimentOpts{}); ok {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeCluster(t *testing.T) {
	rep, err := RunScenario(&Scenario{
		Topology: ScenarioTopology{
			Edges: []ScenarioEdge{{ID: "west"}, {ID: "east"}},
			Cameras: []ScenarioCamera{
				{ID: "a", Profile: ParkDog().Name, Seed: 11, Frames: 30},
				{ID: "b", Profile: StreetVehicles().Name, Seed: 12, Frames: 30},
				{ID: "c", Profile: MallSurveillance().Name, Seed: 13, Frames: 30},
				{ID: "d", Profile: AirportRunway().Name, Seed: 14, Frames: 30},
			},
			Batcher: ScenarioBatcher{MaxBatch: 4, SLO: ScenarioDuration(80 * time.Millisecond)},
		},
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if rep.Frames != 120 || len(rep.Cameras) != 4 {
		t.Fatalf("report covers %d frames over %d cameras", rep.Frames, len(rep.Cameras))
	}
	if rep.Validated == 0 {
		t.Error("no frames validated through the shared batcher")
	}
	if rep.Batcher.SLOViolations != 0 {
		t.Errorf("%d SLO violations", rep.Batcher.SLOViolations)
	}
	if rep.Format() == "" {
		t.Error("report unrenderable")
	}
}

// TestFacadeFaults drives a fault-injected sharded fleet entirely through
// the public API: a scripted edge crash, a participant crash mid-2PC and a
// peer-link partition as timeline events, recovered from the WAL, reported
// in the cluster report.
func TestFacadeFaults(t *testing.T) {
	rep, err := RunScenario(&Scenario{
		Topology: ScenarioTopology{
			Edges: []ScenarioEdge{{ID: "west"}, {ID: "mid"}, {ID: "east"}},
			Cameras: []ScenarioCamera{
				{ID: "a", Profile: ParkDog().Name, Seed: 11, Frames: 30, Edge: "west"},
				{ID: "b", Profile: StreetVehicles().Name, Seed: 12, Frames: 30, Edge: "mid"},
				{ID: "c", Profile: MallSurveillance().Name, Seed: 13, Frames: 30, Edge: "east"},
			},
			Batcher:           ScenarioBatcher{MaxBatch: 4, SLO: ScenarioDuration(80 * time.Millisecond)},
			CrossEdgeFraction: 0.4,
		},
		Timeline: []ScenarioEvent{
			{At: ScenarioDuration(3 * time.Second), Do: EventEdgeCrash, Edge: "mid", RestartAfter: ScenarioDuration(time.Second)},
			{Do: EventTwoPCCrash, Edge: "east", Point: ScenarioPointParticipantPrepared, Round: 1, RestartAfter: ScenarioDuration(time.Second)},
			{At: ScenarioDuration(7 * time.Second), Do: EventLinkFault, A: "west", B: "east", Heal: ScenarioDuration(8 * time.Second)},
		},
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if rep.Frames != 90 {
		t.Fatalf("frames = %d", rep.Frames)
	}
	f := rep.Faults
	if f == nil || f.Crashes != 2 || f.Restarts != 2 || f.LinkOutages != 1 {
		t.Fatalf("fault report = %+v", f)
	}
	if !strings.Contains(rep.Format(), "faults:") {
		t.Error("report does not render the fault line")
	}
}

// TestFacadeValidatorInjection plugs a custom Validator into the two-stage
// graph's cloud node — the seam the cluster layer is built on.
func TestFacadeValidatorInjection(t *testing.T) {
	clk := NewSimClock()
	shedAll := validatorFunc(func(req ValidationRequest) ValidationResult {
		return ValidationResult{Status: ValidationShed}
	})
	p, err := NewPipeline(Config{
		Clock:     clk,
		EdgeModel: TinyYOLOSim(42),
		ThetaL:    0.40,
		Graph:     ModeCroesus.Graph(0.62, shedAll),
	})
	if err != nil {
		t.Fatalf("NewPipeline with Validator: %v", err)
	}
	frames := NewVideoGenerator(ParkDog(), 11).Generate(20)
	outs := p.ProcessVideo(frames)
	sawShed := false
	for _, o := range outs {
		if o.Shed {
			sawShed = true
			if len(o.FinalVisible) != len(o.InitialVisible) {
				t.Fatal("shed frame lost its edge answer")
			}
		}
	}
	if !sawShed {
		t.Error("shed-everything validator never consulted")
	}
}

type validatorFunc func(ValidationRequest) ValidationResult

func (f validatorFunc) Validate(req ValidationRequest) ValidationResult { return f(req) }
