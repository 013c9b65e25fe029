package experiments

import (
	"fmt"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/lock"
	"croesus/internal/netsim"
	"croesus/internal/randsrc"
	"croesus/internal/store"
	"croesus/internal/threshold"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
	"croesus/internal/workload"
)

// Figure2 reproduces "Croesus vs state of the art baselines": for each of
// the four videos, the latency breakdown and F-score of Croesus at
// bandwidth-utilization levels 0..100% against the edge-only and
// cloud-only baselines.
func Figure2(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:    "figure2",
		Title: "Latency breakdown and F-score: Croesus at varying BU vs edge/cloud baselines",
		Header: []string{"video", "system", "BU", "F-score",
			"client-edge ms", "edge-detect ms", "init-txn ms",
			"edge-cloud ms", "cloud-detect ms", "final-txn ms",
			"initial ms", "final ms"},
		Notes: []string{
			"Croesus initial commits stay at edge latency while the final F-score climbs with BU; at BU≈100% the Croesus cloud path exceeds the cloud baseline (it pays both stages), matching the paper's observation.",
		},
	}
	addRow := func(videoName, system string, r runResult) {
		s := r.summary
		b := s.MeanBreakdown
		t.Rows = append(t.Rows, []string{
			videoName, system, pct(s.BU), f3(s.F1Final),
			ms(b.ClientEdge), ms(b.EdgeDetect), ms(b.InitialTxn),
			ms(b.EdgeCloud), ms(b.CloudDetect), ms(b.FinalTxn),
			ms(s.MeanInitialLatency), ms(s.MeanFinalLatency),
		})
	}
	for _, prof := range fourVideos() {
		addRow(prof.Name, "edge-only", run(o, runSpec{prof: prof, mode: core.ModeEdgeOnly}))
		ev := evaluator(o, prof, detect.YOLO416)
		for _, target := range []float64{0, 0.25, 0.50, 0.75, 1.0} {
			l, u := pairForBU(ev, target, 0.05)
			r := run(o, runSpec{prof: prof, mode: core.ModeCroesus, thetaL: l, thetaU: u})
			addRow(prof.Name, fmt.Sprintf("croesus@BU≈%d%%", int(target*100)), r)
		}
		addRow(prof.Name, "cloud-only", run(o, runSpec{prof: prof, mode: core.ModeCloudOnly}))
	}
	return t
}

// Table1 reproduces "Comparison between state-of-the-art edge and cloud and
// optimal threshold Croesus": accuracy (relative to the cloud's 1.0) and
// latency, with the initial-commit latency in parentheses for Croesus.
func Table1(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:    "table1",
		Title: fmt.Sprintf("Optimal-threshold Croesus vs edge and cloud (µ=%.2f)", o.Mu),
		Header: []string{"video", "acc Croesus", "acc Edge", "acc Cloud",
			"lat Croesus ms (initial)", "lat Edge ms", "lat Cloud ms", "(θL,θU)", "BU"},
	}
	for _, prof := range fourVideos() {
		ev := evaluator(o, prof, detect.YOLO416)
		opt := threshold.BruteForce(ev, o.Mu, o.GridStep)
		cro := run(o, runSpec{prof: prof, mode: core.ModeCroesus, thetaL: opt.ThetaL, thetaU: opt.ThetaU})
		edge := run(o, runSpec{prof: prof, mode: core.ModeEdgeOnly})
		cloud := run(o, runSpec{prof: prof, mode: core.ModeCloudOnly})
		t.Rows = append(t.Rows, []string{
			prof.Name,
			fmt.Sprintf("%.2fx", cro.summary.F1Final/cloud.summary.F1Final),
			fmt.Sprintf("%.2fx", edge.summary.F1Final/cloud.summary.F1Final),
			"1.00x",
			fmt.Sprintf("%s (%s)", ms(cro.summary.MeanFinalLatency), ms(cro.summary.MeanInitialLatency)),
			ms(edge.summary.MeanFinalLatency),
			ms(cloud.summary.MeanFinalLatency),
			fmt.Sprintf("(%.2f,%.2f)", opt.ThetaL, opt.ThetaU),
			pct(cro.summary.BU),
		})
	}
	t.Notes = append(t.Notes,
		"The airport video's optimum lands near 0% BU (the edge model is already accurate there), so its Croesus latency collapses to edge latency — the paper's v3 anomaly.")
	return t
}

// Figure3 reproduces "Croesus latency vs. accuracy for different pairs of
// thresholds" on the street-traffic (vehicles) video.
func Figure3(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "figure3",
		Title:  "Threshold-pair sweep on street traffic (vehicles): latency, BU, F-score",
		Header: []string{"(θL,θU)", "BU", "F-score", "initial ms", "final ms", "cloud-leg ms"},
		Notes: []string{
			"Pairs with similar BU can have very different F-scores — e.g. compare (0.5,0.6) against (0.6,0.7): the latter discards the error-dense 0.5–0.6 band instead of validating it.",
		},
	}
	prof := video.StreetVehicles()
	pairs := [][2]float64{
		{0.5, 0.5}, {0.5, 0.6}, {0.5, 0.7}, {0.5, 0.8}, {0.5, 0.9},
		{0.4, 0.6}, {0.6, 0.7}, {0.6, 0.8}, {0.2, 0.9},
	}
	for _, pr := range pairs {
		r := run(o, runSpec{prof: prof, mode: core.ModeCroesus, thetaL: pr[0], thetaU: pr[1]})
		s := r.summary
		cloudLeg := s.MeanBreakdown.EdgeCloud + s.MeanBreakdown.CloudDetect + s.MeanBreakdown.CloudReturn
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("(%.1f,%.1f)", pr[0], pr[1]),
			pct(s.BU), f3(s.F1Final),
			ms(s.MeanInitialLatency), ms(s.MeanFinalLatency), ms(cloudLeg),
		})
	}
	return t
}

// Table2 reproduces "The effect of the cloud model size": optimal
// thresholds, F-score, BU, and detection latency for YOLOv3-{320,416,608}.
func Table2(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "table2",
		Title:  fmt.Sprintf("Effect of the cloud model size (mall video, µ=%.2f)", o.Mu),
		Header: []string{"cloud model", "optimal (θL,θU)", "F-score", "BU", "detect latency s"},
		Notes: []string{
			"Larger cloud models mainly cost detection latency; the optimizer re-balances the thresholds so the resulting F-score and BU stay in the same band, as in the paper.",
		},
	}
	prof := video.MallSurveillance()
	for _, size := range []detect.YOLOSize{detect.YOLO320, detect.YOLO416, detect.YOLO608} {
		ev := evaluator(o, prof, size)
		opt := threshold.BruteForce(ev, o.Mu, 0.1)
		r := run(o, runSpec{prof: prof, mode: core.ModeCroesus, thetaL: opt.ThetaL, thetaU: opt.ThetaU, cloudSize: size})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("YOLOv3-%d", size),
			fmt.Sprintf("(%.1f, %.1f)", opt.ThetaL, opt.ThetaU),
			f3(r.summary.F1Final),
			f3(r.summary.BU),
			fmt.Sprintf("%.2f", meanCloudDetect(r.outcomes).Seconds()),
		})
	}
	return t
}

// Figure4 reproduces "Latency in different setups for the optimal case":
// small/regular edge machines crossed with same/different locations.
func Figure4(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "figure4",
		Title:  fmt.Sprintf("Optimal-threshold Croesus across deployment setups (µ=%.2f)", o.Mu),
		Header: []string{"video", "setup", "initial ms", "final ms", "F-score", "BU"},
		Notes: []string{
			"Setups: edge machine t3a.small (speed 0.45x) or t3a.xlarge (1.0x); cloud in the same location (1 ms) or cross-country (60 ms).",
		},
	}
	setups := []struct {
		name     string
		speed    float64
		sameSite bool
	}{
		{"small edge, different locations", 0.45, false},
		{"small edge, same location", 0.45, true},
		{"regular edge, different locations", 1.0, false},
		{"regular edge, same location", 1.0, true},
	}
	for _, prof := range fourVideos() {
		ev := evaluator(o, prof, detect.YOLO416)
		opt := threshold.BruteForce(ev, o.Mu, o.GridStep)
		for _, su := range setups {
			r := run(o, runSpec{
				prof: prof, mode: core.ModeCroesus,
				thetaL: opt.ThetaL, thetaU: opt.ThetaU,
				edgeSpeed: su.speed, sameSite: su.sameSite,
			})
			t.Rows = append(t.Rows, []string{
				prof.Name, su.name,
				ms(r.summary.MeanInitialLatency), ms(r.summary.MeanFinalLatency),
				f3(r.summary.F1Final), pct(r.summary.BU),
			})
		}
	}
	return t
}

// Figure5 reproduces the BU/accuracy heatmaps over the (θL,θU) grid for
// the street-pedestrian and mall videos, plus the dynamically chosen
// optima: brute force (yellow star) vs gradient step (red star).
func Figure5(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "figure5",
		Title:  "BU / F-score heatmaps over (θL,θU) with brute-force vs gradient optima",
		Header: []string{"video", "θL", "θU=0.0", "0.2", "0.4", "0.6", "0.8", "1.0"},
	}
	videosMu := []struct {
		prof video.Profile
		mu   float64
	}{
		{video.StreetPedestrians(), 0.90},
		{video.MallSurveillance(), 0.80},
	}
	const step = 0.2
	for _, vm := range videosMu {
		ev := evaluator(o, vm.prof, detect.YOLO416)
		for l := 0.0; l < 1.0+1e-9; l += step {
			row := []string{vm.prof.Name, fmt.Sprintf("%.1f", l)}
			for u := 0.0; u < 1.0+1e-9; u += step {
				if u < l {
					row = append(row, "-")
					continue
				}
				f1, bu := ev.Evaluate(l, u)
				row = append(row, fmt.Sprintf("BU=%.2f F=%.2f", bu, f1))
			}
			t.Rows = append(t.Rows, row)
		}
		ev.ResetEvals()
		bf := threshold.BruteForce(ev, vm.mu, 0.05)
		gd := threshold.GradientStep(ev, vm.mu)
		speed := float64(bf.Evals) / float64(gd.Evals)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s (µ=%.2f): brute-force ★ %s; gradient ★ %s — %.1fx fewer evaluations",
			vm.prof.Name, vm.mu, bf, gd, speed))
	}
	return t
}

// Figure6a reproduces the lock-contention comparison: average lock hold
// latency under MS-SR (locks held across the cloud round trip) vs MS-IA
// (locks held per section only), on the mall video.
func Figure6a(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "figure6a",
		Title:  "Lock contention: average lock hold latency, MS-SR vs MS-IA (mall video)",
		Header: []string{"protocol", "mean lock hold", "lock holds", "mean initial ms", "mean final ms"},
		Notes: []string{
			"MS-SR holds every lock from the initial section until the final commit — across the edge→cloud round trip — so hold times sit near the cloud path latency; MS-IA holds locks only for the section body (milliseconds).",
		},
	}
	prof := video.MallSurveillance()
	for _, cc := range []struct {
		name string
		kind ccKind
	}{
		{"MS-IA", ccMSIA},
		{"MS-SR", ccMSSRWait},
	} {
		r := run(o, runSpec{
			prof: prof, mode: core.ModeCroesus,
			thetaL: 0.30, thetaU: 0.70,
			cc: cc.kind, opCost: 150 * time.Microsecond,
		})
		n, mean := r.locks.HoldStats()
		t.Rows = append(t.Rows, []string{
			cc.name,
			mean.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", n),
			ms(r.summary.MeanInitialLatency),
			ms(r.summary.MeanFinalLatency),
		})
	}
	return t
}

// hotspotBatchResult is one Figure6b / ablation measurement.
type hotspotBatchResult struct {
	aborts, total int
	lockWaits     int64
	elapsed       time.Duration
}

// runHotspotBatches executes nBatches batches of batchSize hot-spot update
// transactions. When sequenced is true, MS-IA runs under the batch
// sequencer; otherwise all transactions in a batch run concurrently under
// the given CC, each arriving at a seeded offset within the batch's first
// millisecond (so arrival order is not age order, and wait-die has older
// transactions to queue), with cloudGap of simulated time between each
// transaction's initial and final sections (the window in which MS-SR holds
// its locks).
func runHotspotBatches(o Opts, keyRange int, kind ccKind, sequenced bool, cloudGap time.Duration) hotspotBatchResult {
	o = o.defaults()
	const nBatches, batchSize, opsPerTxn = 3, 50, 5
	clk := vclock.NewSim()
	st := store.New()
	locks := lock.NewManager(clk)
	mgr := txn.NewManager(clk, st, locks)
	var cc txn.CC
	switch kind {
	case ccMSSRWait:
		cc = &txn.MSSR{M: mgr, Policy: txn.Wait}
	case ccMSSRNoWait:
		cc = &txn.MSSR{M: mgr, Policy: txn.NoWait}
	default:
		cc = &txn.MSIA{M: mgr}
	}
	rng := randsrc.New(o.Seed)
	res := hotspotBatchResult{}
	start := time.Duration(0)
	for b := 0; b < nBatches; b++ {
		var insts []*txn.Instance
		for i := 0; i < batchSize; i++ {
			body := workload.UpdateOps(rng, "hot", keyRange, opsPerTxn)
			insts = append(insts, mgr.NewInstance(hotspotTxn(clk, body), nil))
		}
		res.total += batchSize
		if sequenced {
			seq := &txn.Sequencer{CC: cc, Clk: clk}
			clk.Go(func() {
				errs := seq.RunInitialBatch(insts)
				for i, in := range insts {
					if errs[i] == nil {
						clk.Sleep(cloudGap)
						cc.RunFinal(in)
					}
				}
			})
			clk.Wait()
		} else {
			for i, in := range insts {
				arrive := time.Duration(randsrc.Mix64(uint64(o.Seed)<<20|uint64(b*batchSize+i)) % uint64(time.Millisecond))
				clk.Go(func() {
					clk.Sleep(arrive)
					if err := cc.RunInitial(in); err != nil {
						return
					}
					clk.Sleep(cloudGap) // waiting for the cloud labels
					cc.RunFinal(in)
				})
			}
			clk.Wait()
		}
	}
	res.aborts = int(mgr.Stats().Aborts)
	res.lockWaits, _ = locks.WaitStats()
	res.elapsed = clk.Now() - start
	return res
}

// hotspotTxn builds a 5-update transaction whose initial section does the
// writes and whose final section terminates.
func hotspotTxn(clk vclock.Clock, body []workload.Op) *txn.Txn {
	var rw txn.RWSet
	for _, op := range body {
		rw.Writes = append(rw.Writes, op.Key)
	}
	return &txn.Txn{
		Name:      "hotspot-update",
		InitialRW: rw,
		FinalRW:   txn.RWSet{},
		Initial: func(c *txn.Ctx) error {
			for _, op := range body {
				clk.Sleep(100 * time.Microsecond)
				v, _ := c.Get(op.Key)
				c.Put(op.Key, store.Int64Value(store.AsInt64(v)+1))
			}
			return nil
		},
		Final: func(c *txn.Ctx) error { return nil },
	}
}

// Figure6b reproduces the abort-rate experiment: MS-SR (no-wait TSPL) abort
// rate versus hot-spot key-range size, with MS-IA at 0% thanks to the
// batch sequencer.
func Figure6b(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "figure6b",
		Title:  "Abort rate vs hot-spot size (batches of 50 txns × 5 updates)",
		Header: []string{"key range", "MS-SR abort rate", "MS-IA abort rate"},
		Notes: []string{
			"MS-SR holds locks across the cloud round trip and aborts on conflict (no-wait); the abort rate is significant below 10K keys, as in the paper. MS-IA under the single-threaded batch sequencer never aborts.",
		},
	}
	for _, keyRange := range []int{100, 300, 1000, 3000, 10000, 30000, 100000} {
		mssr := runHotspotBatches(o, keyRange, ccMSSRNoWait, false, 300*time.Millisecond)
		msia := runHotspotBatches(o, keyRange, ccMSIA, true, 300*time.Millisecond)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", keyRange),
			pct(float64(mssr.aborts) / float64(mssr.total)),
			pct(float64(msia.aborts) / float64(msia.total)),
		})
	}
	return t
}

// Figure6c reproduces the hybrid-technique comparison on the park video
// with the largest cloud model: compression and difference communication
// applied to the cloud baseline and to Croesus.
func Figure6c(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "figure6c",
		Title:  "Hybrid edge-cloud techniques (park video, YOLOv3-608)",
		Header: []string{"system", "final ms", "initial ms", "F-score", "edge-cloud MB"},
		Notes: []string{
			"Compression and differencing shave the transfer, but cloud detection dominates the latency, so the gains are small — the paper's conclusion for both the baseline and Croesus.",
		},
	}
	prof := video.ParkDog()
	ev := evaluator(o, prof, detect.YOLO608)
	opt := threshold.BruteForce(ev, o.Mu, 0.1)
	systems := []struct {
		name string
		mode core.Mode
		pre  netsim.Preprocessor
	}{
		{"cloud", core.ModeCloudOnly, nil},
		{"cloud+compression", core.ModeCloudOnly, netsim.DefaultCompression()},
		{"cloud+compression+difference", core.ModeCloudOnly, netsim.Chain{netsim.DefaultCompression(), netsim.DefaultDiffComm()}},
		{"croesus", core.ModeCroesus, nil},
		{"croesus+compression", core.ModeCroesus, netsim.DefaultCompression()},
		{"croesus+compression+difference", core.ModeCroesus, netsim.Chain{netsim.DefaultCompression(), netsim.DefaultDiffComm()}},
	}
	for _, sys := range systems {
		r := run(o, runSpec{
			prof: prof, mode: sys.mode,
			thetaL: opt.ThetaL, thetaU: opt.ThetaU,
			cloudSize: detect.YOLO608, preproc: sys.pre,
		})
		bytes, _ := r.cloud.Traffic()
		t.Rows = append(t.Rows, []string{
			sys.name,
			ms(r.summary.MeanFinalLatency),
			ms(r.summary.MeanInitialLatency),
			f3(r.summary.F1Final),
			fmt.Sprintf("%.1f", float64(bytes)/(1<<20)),
		})
	}
	return t
}
