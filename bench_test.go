package croesus

// One benchmark per paper table/figure (regenerating the experiment end to
// end on the virtual clock) plus micro-benchmarks for the load-bearing
// components. Run everything with:
//
//	go test -bench=. -benchmem
//
// For full-scale experiment output use croesus bench instead; the
// benchmarks here use reduced frame counts so the whole suite stays fast.

import (
	"testing"
	"time"

	"croesus/internal/core"
	"croesus/internal/experiments"
	"croesus/internal/lock"
	"croesus/internal/metrics"
	"croesus/internal/node"
	"croesus/internal/store"
	"croesus/internal/threshold"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
	"croesus/internal/workload"

	"math/rand"
)

// benchOpts keeps experiment benchmarks quick while preserving trends.
func benchOpts() experiments.Opts {
	return experiments.Opts{Frames: 40, Seed: 42, Mu: 0.80, GridStep: 0.1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, ok := experiments.ByID(id, benchOpts()); !ok {
			b.Fatalf("unknown experiment %q", id)
		}
	}
}

// --- Paper tables and figures -----------------------------------------------

func BenchmarkFigure2(b *testing.B)  { benchExperiment(b, "figure2") }
func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "figure3") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "figure4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "figure5") }
func BenchmarkFigure6a(b *testing.B) { benchExperiment(b, "figure6a") }
func BenchmarkFigure6b(b *testing.B) { benchExperiment(b, "figure6b") }
func BenchmarkFigure6c(b *testing.B) { benchExperiment(b, "figure6c") }

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblationPolicy(b *testing.B)    { benchExperiment(b, "ablation-policy") }
func BenchmarkAblationSequencer(b *testing.B) { benchExperiment(b, "ablation-sequencer") }
func BenchmarkAblationChain(b *testing.B)     { benchExperiment(b, "ablation-chain") }
func BenchmarkAblationTwoPC(b *testing.B)     { benchExperiment(b, "ablation-2pc") }
func BenchmarkAblationSmoothing(b *testing.B) { benchExperiment(b, "ablation-smoothing") }

// --- Micro-benchmarks ---------------------------------------------------------

func benchFrames(n int) []*video.Frame {
	return video.NewGenerator(video.StreetVehicles(), 11).Generate(n)
}

func BenchmarkEdgeModelDetect(b *testing.B) {
	m := TinyYOLOSim(42)
	frames := benchFrames(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Detect(frames[i%len(frames)])
	}
}

func BenchmarkCloudModelDetect(b *testing.B) {
	m := YOLOv3Sim(YOLO416, 42)
	frames := benchFrames(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Detect(frames[i%len(frames)])
	}
}

func BenchmarkLabelMatching(b *testing.B) {
	edge := TinyYOLOSim(42)
	cloud := YOLOv3Sim(YOLO416, 42)
	frames := benchFrames(32)
	type pair struct{ e, c []Detection }
	pairs := make([]pair, len(frames))
	for i, f := range frames {
		pairs[i] = pair{edge.Detect(f).Detections, cloud.Detect(f).Detections}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		core.MatchLabels(p.e, p.c, 0.10)
	}
}

func BenchmarkScoreClass(b *testing.B) {
	edge := TinyYOLOSim(42)
	cloud := YOLOv3Sim(YOLO416, 42)
	f := benchFrames(1)[0]
	e, c := edge.Detect(f).Detections, cloud.Detect(f).Detections
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ScoreClass(e, c, "car", 0.10)
	}
}

func BenchmarkThresholdEvaluate(b *testing.B) {
	frames := benchFrames(100)
	ev := threshold.NewEvaluator(frames, TinyYOLOSim(42), YOLOv3Sim(YOLO416, 42), "car", 0.10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(0.4, 0.6)
	}
}

func BenchmarkBruteForceThresholds(b *testing.B) {
	frames := benchFrames(60)
	ev := threshold.NewEvaluator(frames, TinyYOLOSim(42), YOLOv3Sim(YOLO416, 42), "car", 0.10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		threshold.BruteForce(ev, 0.8, 0.05)
	}
}

func BenchmarkGradientThresholds(b *testing.B) {
	frames := benchFrames(60)
	ev := threshold.NewEvaluator(frames, TinyYOLOSim(42), YOLOv3Sim(YOLO416, 42), "car", 0.10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		threshold.GradientStep(ev, 0.8)
	}
}

func BenchmarkStorePutGet(b *testing.B) {
	st := store.New()
	v := store.Int64Value(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := store.ItoaKey("k", i%4096)
		st.Put(k, v)
		st.Get(k)
	}
}

func BenchmarkLockAcquireRelease(b *testing.B) {
	m := lock.NewManager(vclock.NewReal())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := lock.Owner(i)
		m.Acquire(o, "k", lock.Exclusive)
		m.Release(o, "k")
	}
}

// benchTxn runs one two-section transaction through an edge's CC under p
// on a real clock.
func benchTxn(b *testing.B, p twopc.Protocol) {
	asm := node.New(vclock.NewReal(), p)
	m, cc := asm.Mgr, asm.CC
	body := &txn.Txn{
		Name:      "bench",
		InitialRW: txn.RWSet{Writes: []string{"a", "b", "c"}},
		FinalRW:   txn.RWSet{Writes: []string{"a"}},
		Initial: func(c *txn.Ctx) error {
			c.Put("a", store.Int64Value(1))
			c.Put("b", store.Int64Value(2))
			c.Put("c", store.Int64Value(3))
			return nil
		},
		Final: func(c *txn.Ctx) error {
			c.Put("a", store.Int64Value(9))
			return nil
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := m.NewInstance(body, nil)
		if err := cc.RunInitial(inst); err != nil {
			b.Fatal(err)
		}
		if err := cc.RunFinal(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMSIATransaction(b *testing.B) {
	benchTxn(b, twopc.MSIA)
}

func BenchmarkMSSRTransaction(b *testing.B) {
	benchTxn(b, twopc.MSSR)
}

func BenchmarkSequencerWaves(b *testing.B) {
	clk := vclock.NewReal()
	m := txn.NewManager(clk, store.New(), lock.NewManager(clk))
	rng := rand.New(rand.NewSource(6))
	var insts []*txn.Instance
	for i := 0; i < 50; i++ {
		ops := workload.UpdateOps(rng, "hot", 100, 5)
		var rw txn.RWSet
		for _, op := range ops {
			rw.Writes = append(rw.Writes, op.Key)
		}
		insts = append(insts, m.NewInstance(&txn.Txn{
			Name: "w", InitialRW: rw, FinalRW: txn.RWSet{},
			Initial: func(c *txn.Ctx) error { return nil },
			Final:   func(c *txn.Ctx) error { return nil },
		}, nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn.Waves(insts)
	}
}

// BenchmarkPipelineVideo measures simulated-pipeline throughput: how much
// wall time one virtual-clock frame costs end to end.
func BenchmarkPipelineVideo(b *testing.B) {
	frames := benchFrames(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk := vclock.NewSim()
		sys := NewSystem(clk)
		p, err := NewPipeline(Config{
			Clock:      clk,
			EdgeModel:  TinyYOLOSim(42),
			CloudModel: YOLOv3Sim(YOLO416, 42),
			ThetaL:     0.4, ThetaU: 0.62,
			Source: NewWorkloadSource(1000, 7),
			CC:     sys.MSIA(),
			Mgr:    sys.Manager,
		})
		if err != nil {
			b.Fatal(err)
		}
		p.ProcessVideo(frames)
	}
	b.ReportMetric(float64(len(frames)*b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkVirtualClock measures the scheduler's sleep/wake cost.
func BenchmarkVirtualClock(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := vclock.NewSim()
		for g := 0; g < 16; g++ {
			g := g
			s.Go(func() {
				for k := 0; k < 8; k++ {
					s.Sleep(time.Duration(g+k) * time.Millisecond)
				}
			})
		}
		s.Wait()
	}
}
