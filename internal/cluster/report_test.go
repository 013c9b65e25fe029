package cluster

import (
	"testing"
	"time"

	"croesus/internal/core"
	"croesus/internal/obs"
	"croesus/internal/twopc"
	"croesus/internal/vclock"
)

// sketchOf rebuilds a latency sketch from kept values.
func sketchOf(ds []time.Duration) *obs.Histogram {
	var h obs.Histogram
	for _, d := range ds {
		h.Observe(d)
	}
	return &h
}

// pcts is a camera or fleet row's initial and final p50/p95/p99.
func pcts(init, final *obs.Histogram) [6]time.Duration {
	return [6]time.Duration{init.Quantile(0.50), init.Quantile(0.95), init.Quantile(0.99),
		final.Quantile(0.50), final.Quantile(0.95), final.Quantile(0.99)}
}

// sameSketch compares two sketches at every percentile.
func sameSketch(t *testing.T, what string, got, want *obs.Histogram) {
	t.Helper()
	for p := 1; p <= 100; p++ {
		q := float64(p) / 100
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Errorf("%s: q%.2f = %s, rebuilt %s", what, q, g, w)
			return
		}
	}
}

// TestReportFoldsFramesAsTheyFinalize: the report reads sketches folded as
// each frame finalizes, and Outcomes rebuilds its frames from the small
// per-frame record. On a depth-3 graph fleet and on a starved two-stage
// fleet that sheds, both with phase marks, every percentile the report
// prints must equal a sketch rebuilt from Outcomes' latencies and flags —
// or, for the middle section and the critical path, which no kept outcome
// field carries, from the pipelines' own /metrics series. Outcomes must
// list every captured frame in capture order and agree with the tally's
// counts and latency sums.
func TestReportFoldsFramesAsTheyFinalize(t *testing.T) {
	graph := shardedConfig(vclock.NewSim(), 0.4, twopc.MSIA)
	graph.Graph = depth3Graph()
	starved := fourCamTwoEdge(vclock.NewSim(), BatcherConfig{MaxBatch: 2, SLO: 40 * time.Millisecond, MaxPending: 2, CloudSpeed: 0.10})
	t.Run("graph", func(t *testing.T) { checkFolded(t, graph) })
	t.Run("shedding", func(t *testing.T) { checkFolded(t, starved) })
}

func checkFolded(t *testing.T, cfg Config) {
	cfg.Obs = obs.New()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	c.Schedule(time.Second, "early", nil)
	c.Schedule(2500*time.Millisecond, "late", nil)
	c.StartCameras()
	rep := c.Drain()

	nSec := 0
	if cfg.Graph != nil {
		nSec = len(cfg.Graph.Nodes)
	} else if rep.Shed == 0 {
		t.Fatal("the starved fleet shed nothing; the shed flag goes unchecked")
	}
	if len(rep.Phases) != 3 || len(rep.Sections) != nSec {
		t.Fatalf("report has %d phases and %d sections, want 3 and %d", len(rep.Phases), len(rep.Sections), nSec)
	}
	var fleetInit, fleetFinal, middle obs.Histogram
	var comp [5]obs.Histogram // CriticalPath's order
	phaseFinal := make([][]time.Duration, len(rep.Phases))
	phaseFrames, phaseValid, phaseShed := make([]int, len(rep.Phases)), make([]int, len(rep.Phases)), make([]int, len(rep.Phases))
	for _, cr := range rep.Cameras {
		outs := c.Outcomes(cr.Camera)
		s := cr.Summary
		if len(outs) != s.Frames || s.Frames != cfg.Cameras[0].Frames {
			t.Fatalf("%s: Outcomes has %d frames, tally %d, want %d", cr.Camera, len(outs), s.Frames, cfg.Cameras[0].Frames)
		}
		var init, final []time.Duration
		var initSum, finalSum time.Duration
		var sent, shed, lost int
		for i, o := range outs {
			if o.FrameIndex != i || (i > 0 && o.CapturedAt <= outs[i-1].CapturedAt) {
				t.Fatalf("%s: outcome %d is frame %d captured at %s, not in capture order", cr.Camera, i, o.FrameIndex, o.CapturedAt)
			}
			if o.Breakdown != (core.Breakdown{}) || o.Sections != nil || o.FinalVisible != nil {
				t.Fatalf("%s frame %d: Outcomes filled a field it does not keep: %+v", cr.Camera, i, o)
			}
			init, final = append(init, o.InitialLatency), append(final, o.FinalLatency)
			initSum += o.InitialLatency
			finalSum += o.FinalLatency
			if o.SentToCloud {
				sent++
				switch {
				case o.Shed:
					shed++
				case o.CloudLost:
					lost++
				}
			}
			for pi, p := range rep.Phases {
				if o.CapturedAt >= p.Start && (pi == len(rep.Phases)-1 || o.CapturedAt < p.End) {
					phaseFrames[pi]++
					phaseFinal[pi] = append(phaseFinal[pi], o.FinalLatency)
					if o.SentToCloud && !o.Shed && !o.CloudLost {
						phaseValid[pi]++
					} else if o.Shed {
						phaseShed[pi]++
					}
				}
			}
		}
		n := time.Duration(len(outs))
		if initSum/n != s.MeanInitialLatency || finalSum/n != s.MeanFinalLatency {
			t.Errorf("%s: Outcomes' mean latencies %s/%s, tally's %s/%s", cr.Camera, initSum/n, finalSum/n, s.MeanInitialLatency, s.MeanFinalLatency)
		}
		if shed != s.Shed || lost != s.CloudLost || sent-shed-lost != s.Validated || float64(sent)/float64(len(outs)) != s.BU {
			t.Errorf("%s: Outcomes' flags give %d sent, %d shed, %d lost; tally %+v", cr.Camera, sent, shed, lost, s)
		}

		ci, cf := sketchOf(init), sketchOf(final)
		if got, want := [6]time.Duration{cr.InitialP50, cr.InitialP95, cr.InitialP99, cr.FinalP50, cr.FinalP95, cr.FinalP99}, pcts(ci, cf); got != want {
			t.Errorf("%s: report's initial and final p50/p95/p99 %v, rebuilt from Outcomes %v", cr.Camera, got, want)
		}
		tags := func(kv ...string) string {
			return obs.Tags(append(kv, "edge", cr.Edge, "camera", cr.Camera, "protocol", rep.Protocol)...)
		}
		sameSketch(t, cr.Camera+" initial vs /metrics", ci, cfg.Obs.Histogram(obs.MetricInitialLatency, tags()))
		sameSketch(t, cr.Camera+" final vs /metrics", cf, cfg.Obs.Histogram(obs.MetricFinalLatency, tags()))
		fleetInit.Merge(ci)
		fleetFinal.Merge(cf)
		middle.Merge(cfg.Obs.Histogram(obs.MetricSectionLatency, tags("section", "1")))
		for i, name := range [5]string{"compute", "queue", "lock", "twopc", "network"} {
			comp[i].Merge(cfg.Obs.Histogram(obs.MetricComponent, tags("component", name)))
		}
	}

	if got, want := [6]time.Duration{rep.InitialP50, rep.InitialP95, rep.InitialP99, rep.FinalP50, rep.FinalP95, rep.FinalP99}, pcts(&fleetInit, &fleetFinal); got != want {
		t.Errorf("fleet initial and final p50/p95/p99 %v, rebuilt from Outcomes %v", got, want)
	}
	// Section 0 commits at the initial render and the last section at the
	// final one; the middle section's latency lives only in its sketches.
	for k, sr := range rep.Sections {
		want := []*obs.Histogram{&fleetInit, &middle, &fleetFinal}[k]
		if sr.LatencyP50 != want.Quantile(0.50) || sr.LatencyP99 != want.Quantile(0.99) {
			t.Errorf("section %d latency p50/p99 %s/%s, rebuilt %s/%s", k, sr.LatencyP50, sr.LatencyP99, want.Quantile(0.50), want.Quantile(0.99))
		}
	}
	cp := rep.CriticalPath
	for i, got := range [5][2]time.Duration{
		{cp.ComputeP50, cp.ComputeP99}, {cp.QueueP50, cp.QueueP99}, {cp.LockP50, cp.LockP99},
		{cp.TwoPCP50, cp.TwoPCP99}, {cp.NetworkP50, cp.NetworkP99},
	} {
		if want := [2]time.Duration{comp[i].Quantile(0.50), comp[i].Quantile(0.99)}; got != want {
			t.Errorf("critical-path component %d p50/p99 %v, rebuilt from /metrics %v", i, got, want)
		}
	}
	for pi, p := range rep.Phases {
		h := sketchOf(phaseFinal[pi])
		if p.Frames != phaseFrames[pi] || p.Validated != phaseValid[pi] || p.Shed != phaseShed[pi] ||
			p.FinalP50 != h.Quantile(0.50) || p.FinalP99 != h.Quantile(0.99) {
			t.Errorf("phase %s: %d frames, %d validated, %d shed, final p50/p99 %s/%s; rebuilt %d, %d, %d, %s/%s",
				p.Label, p.Frames, p.Validated, p.Shed, p.FinalP50, p.FinalP99,
				phaseFrames[pi], phaseValid[pi], phaseShed[pi], h.Quantile(0.50), h.Quantile(0.99))
		}
		if p.Frames == 0 {
			t.Errorf("phase %s captured no frame; the marks miss the run", p.Label)
		}
	}
	if rep.Phases[1].Label != "early" || rep.Phases[2].Label != "late" {
		t.Errorf("phase labels %q, %q, want early, late", rep.Phases[1].Label, rep.Phases[2].Label)
	}
}
