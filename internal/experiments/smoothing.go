package experiments

import (
	"fmt"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/node"
	"croesus/internal/smoothing"
	"croesus/internal/twopc"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// AblationSmoothing measures the correction feedback loop of §2.1's
// footnote (package smoothing): at identical thresholds the corrector
// converts cloud validations into durable local knowledge, cutting
// bandwidth; compared against a plain pipeline tuned to the same reduced
// bandwidth, it wins on accuracy.
func AblationSmoothing(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "ablation-smoothing",
		Title:  "Correction feedback (smoothing): bandwidth and accuracy (park video)",
		Header: []string{"configuration", "(θL,θU)", "BU", "F-score", "mean final ms"},
	}
	prof := video.ParkDog()
	frames := video.NewGenerator(prof, o.Seed).Generate(o.Frames)

	runWith := func(sm core.Smoother, thetaL, thetaU float64) core.Summary {
		clk := vclock.NewSim()
		asm := node.New(clk, twopc.MSIA)
		cloud := detect.YOLOv3Sim(detect.YOLO416, o.Seed)
		p, err := core.New(core.Config{
			Clock:      clk,
			EdgeModel:  detect.TinyYOLOSim(o.Seed),
			CloudModel: cloud,
			ThetaL:     thetaL, ThetaU: thetaU,
			Source:   core.NewWorkloadSource(1000, o.Seed),
			CC:       asm.CC,
			Mgr:      asm.Mgr,
			Smoother: sm,
		})
		if err != nil {
			panic("experiments: " + err.Error())
		}
		outs := p.ProcessVideo(frames)
		truth := core.TruthFromModel(cloud, frames)
		return core.Summarize(prof.Name, core.ModeCroesus, prof.QueryClass, outs, truth, 0.10)
	}

	const thetaL, thetaU = 0.40, 0.62
	base := runWith(nil, thetaL, thetaU)
	smoothed := runWith(smoothing.New(), thetaL, thetaU)

	// A plain pipeline narrowed to approximately the smoothed bandwidth.
	matched := base
	bestGap := 2.0
	matchedPair := [2]float64{thetaL, thetaU}
	for _, pair := range [][2]float64{{0.40, 0.45}, {0.45, 0.50}, {0.40, 0.50}, {0.50, 0.55}, {0.45, 0.55}} {
		s := runWith(nil, pair[0], pair[1])
		gap := s.BU - smoothed.BU
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			bestGap, matched, matchedPair = gap, s, pair
		}
	}

	row := func(name string, pair [2]float64, s core.Summary) {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("(%.2f,%.2f)", pair[0], pair[1]),
			pct(s.BU), f3(s.F1Final), ms(s.MeanFinalLatency),
		})
	}
	row("baseline", [2]float64{thetaL, thetaU}, base)
	row("smoothing, same thresholds", [2]float64{thetaL, thetaU}, smoothed)
	row("baseline at matched BU", matchedPair, matched)
	t.Notes = append(t.Notes,
		"Smoothing rewrites edge labels of cloud-settled tracks at boosted confidence, so settled objects stop re-validating: bandwidth falls sharply at the same thresholds, and against a baseline spending the same bandwidth, accuracy is higher — the feedback loop sketched in the paper's §2.1 footnote.")
	return t
}
