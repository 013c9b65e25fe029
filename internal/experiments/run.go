package experiments

import (
	"math"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/lock"
	"croesus/internal/netsim"
	"croesus/internal/node"
	"croesus/internal/threshold"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// runSpec describes one pipeline execution.
type runSpec struct {
	prof      video.Profile
	mode      core.Mode
	thetaL    float64
	thetaU    float64
	edgeSpeed float64 // 0 → 1.0 (t3a.xlarge); t3a.small ≈ 0.45
	sameSite  bool    // edge and cloud co-located
	cloudSize detect.YOLOSize
	preproc   netsim.Preprocessor
	protocol  twopc.Protocol
	opCost    time.Duration
}

// runResult bundles everything an experiment may need from one run.
type runResult struct {
	summary  core.Summary
	outcomes []core.FrameOutcome
	locks    *lock.Manager
	mgr      *txn.Manager
	edgeLink *netsim.Link
	cloud    *netsim.Link
}

// run executes one pipeline configuration on a fresh virtual clock.
func run(o Opts, s runSpec) runResult {
	o = o.defaults()
	if s.cloudSize == 0 {
		s.cloudSize = detect.YOLO416
	}
	if s.edgeSpeed == 0 {
		s.edgeSpeed = 1.0
	}
	frames := video.NewGenerator(s.prof, o.Seed).Generate(o.Frames)

	clk := vclock.NewSim()
	asm := node.New(clk, s.protocol)
	source := core.NewWorkloadSource(1000, o.Seed)
	source.Clk = clk
	source.OpCost = s.opCost
	if source.OpCost == 0 {
		// Sections cost a little CPU, so the per-frame transaction
		// latencies show up as the "very minute" bars of Figure 2.
		source.OpCost = 50 * time.Microsecond
	}

	edgeCloud := netsim.EdgeCloudCrossCountry()
	if s.sameSite {
		edgeCloud = netsim.EdgeCloudSameSite()
	}
	clientEdge := netsim.ClientEdgeLink()

	cloudModel := detect.YOLOv3Sim(s.cloudSize, o.Seed)
	cfg := core.Config{
		Clock:      clk,
		Mode:       s.mode,
		EdgeModel:  detect.TinyYOLOSim(o.Seed),
		CloudModel: cloudModel,
		EdgeSpeed:  s.edgeSpeed,
		ClientEdge: clientEdge,
		EdgeCloud:  edgeCloud,
		Preproc:    s.preproc,
		ThetaL:     s.thetaL,
		ThetaU:     s.thetaU,
		Source:     source,
		CC:         asm.CC,
		Mgr:        asm.Mgr,
	}
	p, err := core.New(cfg)
	if err != nil {
		panic("experiments: bad run spec: " + err.Error())
	}
	outs := p.ProcessVideo(frames)
	truth := core.TruthFromModel(cloudModel, frames)
	sum := core.Summarize(s.prof.Name, s.mode, s.prof.QueryClass, outs, truth, p.Config().OverlapMin)
	return runResult{
		summary:  sum,
		outcomes: outs,
		locks:    asm.Locks,
		mgr:      asm.Mgr,
		edgeLink: clientEdge,
		cloud:    edgeCloud,
	}
}

// evaluator precomputes the threshold evaluator for one video and cloud
// model.
func evaluator(o Opts, prof video.Profile, size detect.YOLOSize) *threshold.Evaluator {
	o = o.defaults()
	frames := video.NewGenerator(prof, o.Seed).Generate(o.Frames)
	return threshold.NewEvaluator(frames, detect.TinyYOLOSim(o.Seed), detect.YOLOv3Sim(size, o.Seed), prof.QueryClass, 0.10)
}

// pairForBU scans the grid for the threshold pair whose bandwidth
// utilization is closest to the target, breaking ties toward higher
// F-score — how the Figure 2 BU levels are configured.
func pairForBU(e *threshold.Evaluator, target, step float64) (l, u float64) {
	bestDist := math.Inf(1)
	bestF := -1.0
	for lo := 0.0; lo < 1.0+1e-9; lo += step {
		for hi := lo; hi < 1.0+1e-9; hi += step {
			f1, bu := e.Evaluate(lo, hi)
			dist := math.Abs(bu - target)
			if dist < bestDist-1e-12 || (math.Abs(dist-bestDist) <= 1e-12 && f1 > bestF) {
				bestDist, bestF = dist, f1
				l, u = lo, hi
			}
		}
	}
	return l, u
}

// meanCloudDetect averages cloud detection latency over the frames that
// actually went to the cloud.
func meanCloudDetect(outs []core.FrameOutcome) time.Duration {
	var sum time.Duration
	n := 0
	for i := range outs {
		if outs[i].SentToCloud {
			sum += outs[i].Breakdown.CloudDetect
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// fourVideos returns the paper's v1..v4.
func fourVideos() []video.Profile {
	return []video.Profile{
		video.ParkDog(),
		video.StreetVehicles(),
		video.AirportRunway(),
		video.MallSurveillance(),
	}
}
