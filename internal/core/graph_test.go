package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"croesus/internal/detect"
	"croesus/internal/lock"
	"croesus/internal/metrics"
	"croesus/internal/netsim"
	"croesus/internal/store"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// fixedModel answers every frame with the same labels.
type fixedModel struct {
	dets []detect.Detection
	lat  time.Duration
}

func (m fixedModel) Name() string { return "fixed" }
func (m fixedModel) Detect(*video.Frame) detect.Result {
	return detect.Result{Detections: m.dets, Latency: m.lat}
}

// fixedValidator answers every request with the same result.
type fixedValidator ValidationResult

func (v fixedValidator) Validate(ValidationRequest) ValidationResult { return ValidationResult(v) }

func det(label string, conf, x float64) detect.Detection {
	return detect.Detection{Label: label, Confidence: conf, Box: video.Rect{X: x, Y: 0.1, W: 0.1, H: 0.1}}
}

func model(dets ...detect.Detection) detect.Model {
	return fixedModel{dets: dets, lat: 10 * time.Millisecond}
}

// TestGraphExecutor drives one frame through a graph and checks what each
// transaction section saw, in commit order: "<trigger>/s<section>:<case>".
func TestGraphExecutor(t *testing.T) {
	dogLo, dogHi := det("dog", 0.5, 0.1), det("dog", 0.9, 0.1)
	cat := det("cat", 0.9, 0.1) // overlaps the dog box: a correction
	bird := det("bird", 0.9, 0.6)
	const finalCost = 40 * time.Millisecond

	cases := []struct {
		name  string
		graph *Graph
		// wantLog is the section execution order; wantFinal the labels the
		// client ends on.
		wantLog     []string
		wantFinal   []detect.Detection
		sentToCloud bool
		shed, lost  bool
		txns        int
		// reached lists the off-hub sections whose node actually ran.
		reached []int
		check   func(t *testing.T, out FrameOutcome)
	}{
		{
			name:      "edge-only shape ends at node 0; the final section commits locally",
			graph:     withModels(ModeEdgeOnly.Graph(0, nil), model(dogLo), nil),
			wantLog:   []string{"dog/s0:initial", "dog/s1:assumed-correct"},
			wantFinal: []detect.Detection{dogLo},
			txns:      1,
		},
		{
			name:      "confidence above θU ends the two-stage route at node 0",
			graph:     withModels(ModeCroesus.Graph(0.6, nil), model(dogHi), model(cat)),
			wantLog:   []string{"dog/s0:initial", "dog/s1:assumed-correct"},
			wantFinal: []detect.Detection{dogHi},
			txns:      1,
		},
		{
			name:        "confidence inside the validate interval takes the full route",
			graph:       withModels(ModeCroesus.Graph(0.6, nil), model(dogLo), model(cat)),
			wantLog:     []string{"dog/s0:initial", "dog/s1:corrected"},
			wantFinal:   []detect.Detection{cat},
			sentToCloud: true,
			txns:        1,
			reached:     []int{1},
		},
		{
			name: "a switch that jumps a node commits the skipped section first",
			graph: &Graph{Nodes: []GraphNode{
				{Name: "detect", Tier: txn.TierEdge, Model: model(dogLo), Switch: []SwitchBranch{{Lo: 0, Hi: 1, To: "verify"}}},
				{Name: "classify", Tier: txn.TierPeer, Model: model(bird)},
				{Name: "verify", Tier: txn.TierCloud, Model: model(dogLo)},
			}},
			wantLog:     []string{"dog/s0:initial", "dog/s1:assumed-correct", "dog/s2:correct"},
			wantFinal:   []detect.Detection{dogLo},
			sentToCloud: true,
			txns:        1,
			reached:     []int{2},
		},
		{
			name: "a label first seen at node k catches up through sections 0..k",
			graph: &Graph{Nodes: []GraphNode{
				{Name: "detect", Tier: txn.TierEdge, Model: model(dogLo)},
				{Name: "classify", Tier: txn.TierPeer, Model: model(dogLo)},
				{Name: "verify", Tier: txn.TierCloud, Model: model(dogLo, bird)},
			}},
			wantLog: []string{
				"dog/s0:initial", "dog/s1:correct", "dog/s2:correct",
				"bird/s0:initial", "bird/s1:assumed-correct", "bird/s2:new-from-cloud",
			},
			wantFinal:   []detect.Detection{dogLo, bird},
			sentToCloud: true,
			txns:        2,
			reached:     []int{1, 2},
		},
		{
			name:        "a validator that sheds the request finalises with the edge labels",
			graph:       withModels(ModeCroesus.Graph(0.6, fixedValidator{Status: ValidationShed}), model(dogLo), nil),
			wantLog:     []string{"dog/s0:initial", "dog/s1:assumed-correct"},
			wantFinal:   []detect.Detection{dogLo},
			sentToCloud: true,
			shed:        true,
			txns:        1,
			check: func(t *testing.T, out FrameOutcome) {
				if !reflect.DeepEqual(out.FinalVisible, out.InitialVisible) {
					t.Errorf("shed frame changed its labels: initial %v, final %v", out.InitialVisible, out.FinalVisible)
				}
			},
		},
		{
			name:        "a validator that loses the request finalises with the edge labels",
			graph:       withModels(ModeCroesus.Graph(0.6, fixedValidator{Status: ValidationLost}), model(dogLo), nil),
			wantLog:     []string{"dog/s0:initial", "dog/s1:assumed-correct"},
			wantFinal:   []detect.Detection{dogLo},
			sentToCloud: true,
			lost:        true,
			txns:        1,
		},
		{
			name: "node 0 on the cloud tier commits initially before the final section runs",
			graph: ModeCloudOnly.Graph(0, fixedValidator{
				Status: Validated, Cloud: []detect.Detection{cat}, CloudDetect: time.Second,
			}),
			wantLog:     []string{"cat/s0:initial", "cat/s1:assumed-correct"},
			wantFinal:   []detect.Detection{cat},
			sentToCloud: true,
			txns:        1,
			reached:     []int{0},
			check: func(t *testing.T, out FrameOutcome) {
				if gap := out.FinalLatency - out.InitialLatency; gap < finalCost {
					t.Errorf("initial latency %v absorbed the final section (final %v)", out.InitialLatency, out.FinalLatency)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewSim()
			mgr := txn.NewManager(clk, store.New(), lock.NewManager(clk))
			var log []string
			n := len(tc.graph.Nodes)
			source := TxnSourceFunc(func(_ int, d detect.Detection) *txn.Txn {
				key := "k-" + d.Label
				secs := make([]txn.SectionSpec, n)
				for k := range secs {
					k := k
					secs[k] = txn.SectionSpec{
						Name: tc.graph.Nodes[k].Name, Tier: tc.graph.Nodes[k].Tier,
						RW: txn.RWSet{Writes: []string{key}},
						Body: func(c *txn.Ctx) error {
							what := "initial"
							if fin, ok := c.In().(FinalInput); ok {
								what = fin.Case.String()
								clk.Sleep(finalCost)
							}
							log = append(log, fmt.Sprintf("%s/s%d:%s", d.Label, k, what))
							c.Put(key, store.Int64Value(int64(k)))
							return nil
						},
					}
				}
				return &txn.Txn{Name: "t-" + d.Label, Sections: secs}
			})
			p, err := New(Config{Clock: clk, EdgeModel: model(), Graph: tc.graph, Source: source, CC: &txn.MSIA{M: mgr}, Mgr: mgr})
			if err != nil {
				t.Fatal(err)
			}
			out := p.ProcessVideo(parkFrames(1))[0]

			if !reflect.DeepEqual(log, tc.wantLog) {
				t.Errorf("sections ran as\n  %v\nwant\n  %v", log, tc.wantLog)
			}
			if !reflect.DeepEqual(out.FinalVisible, tc.wantFinal) {
				t.Errorf("final labels %v, want %v", out.FinalVisible, tc.wantFinal)
			}
			if out.SentToCloud != tc.sentToCloud || out.Shed != tc.shed || out.CloudLost != tc.lost {
				t.Errorf("sent/shed/lost = %v/%v/%v, want %v/%v/%v",
					out.SentToCloud, out.Shed, out.CloudLost, tc.sentToCloud, tc.shed, tc.lost)
			}
			if out.TxnsTriggered != tc.txns || out.FinalErrors != 0 {
				t.Errorf("txns = %d (errors %d), want %d", out.TxnsTriggered, out.FinalErrors, tc.txns)
			}
			if st := mgr.Stats(); st.InitialCommits != int64(tc.txns) || st.FinalCommits != int64(tc.txns) {
				t.Errorf("manager stats %+v: every transaction must reach its last boundary", st)
			}
			var reached []int
			for k, sec := range out.Sections {
				if sec.Detect > 0 {
					reached = append(reached, k)
				}
				if k > 0 && sec.Latency < out.Sections[k-1].Latency {
					t.Errorf("section %d committed at %v, before section %d at %v", k, sec.Latency, k-1, out.Sections[k-1].Latency)
				}
			}
			if !reflect.DeepEqual(reached, tc.reached) {
				t.Errorf("off-hub nodes reached = %v, want %v", reached, tc.reached)
			}
			if out.Sections[0].Latency != out.InitialLatency || out.Sections[n-1].Latency != out.FinalLatency {
				t.Errorf("first/last section latencies %v/%v are not the initial/final latencies %v/%v",
					out.Sections[0].Latency, out.Sections[n-1].Latency, out.InitialLatency, out.FinalLatency)
			}
			if tc.check != nil {
				tc.check(t, out)
			}
		})
	}
}

// withModels sets the models of a two-node graph.
func withModels(g *Graph, first, second detect.Model) *Graph {
	g.Nodes[0].Model, g.Nodes[1].Model = first, second
	return g
}

func TestGraphValidation(t *testing.T) {
	clk := vclock.NewSim()
	if _, err := New(Config{Clock: clk, Graph: &Graph{}}); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := New(Config{Clock: clk, Graph: &Graph{Nodes: []GraphNode{{Name: "edge", Tier: txn.TierEdge}}}}); err == nil {
		t.Error("node with no model and no tier default accepted")
	}
	cloudless := &Graph{Nodes: []GraphNode{
		{Name: "edge", Tier: txn.TierEdge, Model: model()},
		{Name: "cloud", Tier: txn.TierCloud},
	}}
	if _, err := New(Config{Clock: clk, Graph: cloudless}); err == nil {
		t.Error("cloud node with neither model nor validator accepted")
	}
	cloudless.Nodes[1].Validator = fixedValidator{}
	if _, err := New(Config{Clock: clk, Graph: cloudless}); err != nil {
		t.Errorf("cloud node answered by a validator rejected: %v", err)
	}
}

// The tests below are the generalized m-stage model of §3.5 — a graph run
// without a transaction source, over the simulated detectors.

// chainGraph builds edge → (regional →) cloud, each stage forwarding when
// its least confident label is at or below thetaU.
func chainGraph(cloud detect.Model, regional detect.Model, thetaU float64) *Graph {
	forward := func(to string) []SwitchBranch {
		return []SwitchBranch{{Lo: 0, Hi: thetaU, To: to}, {Lo: thetaU, Hi: 1, To: DoneTarget}}
	}
	if regional == nil {
		return &Graph{Nodes: []GraphNode{
			{Name: "edge", Tier: txn.TierEdge, Switch: forward("cloud")},
			{Name: "cloud", Tier: txn.TierCloud, Model: cloud},
		}}
	}
	return &Graph{Nodes: []GraphNode{
		{Name: "edge", Tier: txn.TierEdge, Switch: forward("regional")},
		{Name: "regional", Tier: txn.TierPeer, Model: regional, Switch: forward("cloud")},
		{Name: "cloud", Tier: txn.TierCloud, Model: cloud},
	}}
}

func runChain(t *testing.T, g *Graph, thetaL float64, frames []*video.Frame) []FrameOutcome {
	t.Helper()
	p, err := New(Config{
		Clock:     vclock.NewSim(),
		EdgeModel: detect.TinyYOLOSim(1),
		ThetaL:    thetaL,
		PeerPath:  netsim.EdgeCloudSameSite(),
		Graph:     g,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p.ProcessVideo(frames)
}

// stagesRun counts the stages that processed the frame: node 0 plus every
// off-hub node the route reached.
func stagesRun(o FrameOutcome) int {
	n := 1
	for _, sec := range o.Sections[1:] {
		if sec.Detect > 0 {
			n++
		}
	}
	return n
}

func TestChainEarlyStop(t *testing.T) {
	// Empty validate interval at stage 0: every frame stops there.
	g := chainGraph(detect.YOLOv3Sim(detect.YOLO416, 1), nil, 0.5)
	frames := video.NewGenerator(video.ParkDog(), 3).Generate(10)
	for _, o := range runChain(t, g, 0.5, frames) {
		if n := stagesRun(o); n != 1 {
			t.Fatalf("frame %d ran %d stages, want 1", o.FrameIndex, n)
		}
		if o.FinalLatency != o.InitialLatency {
			t.Fatalf("frame %d committed again after its only stage", o.FrameIndex)
		}
	}
}

func TestChainFullForwarding(t *testing.T) {
	cloud := detect.YOLOv3Sim(detect.YOLO416, 1)
	prof := video.ParkDog()
	frames := video.NewGenerator(prof, 3).Generate(12)
	outs := runChain(t, chainGraph(cloud, nil, 1), 0, frames)
	truth := TruthFromModel(cloud, frames)
	var agg metrics.Counts
	forwarded := 0
	for _, o := range outs {
		if stagesRun(o) == 2 {
			forwarded++
			// Commit latencies must be strictly increasing per stage.
			if o.Sections[1].Latency <= o.Sections[0].Latency {
				t.Fatalf("frame %d: stage 1 commit %v not after stage 0 commit %v",
					o.FrameIndex, o.Sections[1].Latency, o.Sections[0].Latency)
			}
		}
		agg.Add(metrics.ScoreClass(o.FinalVisible, truth(o.FrameIndex), prof.QueryClass, 0.1))
	}
	if forwarded < len(frames)*3/4 {
		t.Errorf("only %d/%d frames reached the cloud at (0,1) thresholds", forwarded, len(frames))
	}
	if agg.F1() < 0.9 {
		t.Errorf("chain final F1 = %.3f, want near-perfect with full forwarding", agg.F1())
	}
}

func TestChainThreeStagesMonotoneAccuracy(t *testing.T) {
	// With progressively better models, accuracy must not degrade along
	// the chain. Each prefix of the chain, fully forwarding, ends on its
	// last stage's labels.
	final := detect.YOLOv3Sim(detect.YOLO608, 1)
	regional := detect.YOLOv3Sim(detect.YOLO320, 1)
	prof := video.MallSurveillance()
	frames := video.NewGenerator(prof, 3).Generate(15)
	truth := TruthFromModel(final, frames)
	score := func(outs []FrameOutcome, labels func(FrameOutcome) []detect.Detection) float64 {
		var c metrics.Counts
		for _, o := range outs {
			c.Add(metrics.ScoreClass(labels(o), truth(o.FrameIndex), prof.QueryClass, 0.1))
		}
		return c.F1()
	}
	initial := func(o FrameOutcome) []detect.Detection { return o.InitialVisible }
	last := func(o FrameOutcome) []detect.Detection { return o.FinalVisible }

	full := runChain(t, chainGraph(final, regional, 1), 0, frames)
	f0 := score(full, initial)
	f1 := score(runChain(t, chainGraph(regional, nil, 1), 0, frames), last)
	f2 := score(full, last)
	if !(f0 <= f1+0.05 && f1 <= f2+0.05) {
		t.Errorf("per-stage F not improving: %.3f %.3f %.3f", f0, f1, f2)
	}
	if f2 < 0.95 {
		t.Errorf("final stage F = %.3f, want ≈ 1 (it defines truth)", f2)
	}
}

func TestChainLatencyDominatedByReachedStages(t *testing.T) {
	g := chainGraph(detect.YOLOv3Sim(detect.YOLO608, 1), nil, 1)
	frames := video.NewGenerator(video.ParkDog(), 3).Generate(6)
	for _, o := range runChain(t, g, 0, frames) {
		if stagesRun(o) != 2 {
			continue
		}
		if last := o.Sections[1].Latency; last < 2*time.Second {
			t.Errorf("frame %d final commit %v too fast for a YOLO-608 stage", o.FrameIndex, last)
		}
		if first := o.Sections[0].Latency; first > time.Second {
			t.Errorf("frame %d initial commit %v too slow for an edge stage", o.FrameIndex, first)
		}
	}
}
