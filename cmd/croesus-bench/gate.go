package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"croesus"
	"croesus/internal/obs"
	"croesus/internal/transport"
	"croesus/internal/vclock"
	"croesus/internal/wire"
)

// benchResult mirrors one entry of the BENCH_N.json files. Transport
// rows fill the payload fields; cluster-scale rows fill Cameras/Edges and
// FramesPerSec instead.
type benchResult struct {
	Name         string  `json:"name"`
	Transport    string  `json:"transport,omitempty"`
	PayloadBytes int     `json:"payload_bytes,omitempty"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	Cameras      int     `json:"cameras,omitempty"`
	Edges        int     `json:"edges,omitempty"`
	FramesPerSec float64 `json:"frames_per_sec,omitempty"`
}

// benchFile is the BENCH_N.json envelope.
type benchFile struct {
	PR        int           `json:"pr"`
	Date      string        `json:"date"`
	Benchmark string        `json:"benchmark"`
	Command   string        `json:"command"`
	Notes     string        `json:"notes"`
	Results   []benchResult `json:"results"`
}

const benchIters = 3000

// benchReps repeats each timed loop and keeps the fastest repetition.
// Loopback-socket timings on a shared container jitter by tens of
// percent run to run; the minimum is the stable, contention-free cost,
// which is what a regression gate must compare.
const benchReps = 5

// regressionThreshold is the tolerated per-message cost growth against
// the baseline file before -compare fails the build.
const regressionThreshold = 0.25

// runTransportBench measures the per-message cost of both fleet
// transports at the two canonical payloads — the same cases
// BenchmarkTransport pins — plus traced TCP variants that carry a
// wire-level trace context and emit a net.hop span per send, so the
// tracing tax is a recorded number rather than a guess.
func runTransportBench() []benchResult {
	payloads := []struct {
		name string
		n    int
	}{{"frame-32KiB", 32 << 10}, {"msg-256B", 256}}

	var out []benchResult
	for _, p := range payloads {
		out = append(out, measureSim(p.name, p.n))
		out = append(out, measureTCP(p.name, p.n, false))
		out = append(out, measureTCP(p.name, p.n, true))
	}
	return out
}

func measure(iters int, op func()) (nsPerOp float64, bytesPerOp, allocsPerOp int64) {
	for i := 0; i < 100; i++ { // warmup
		op()
	}
	var m0, m1 runtime.MemStats
	for rep := 0; rep < benchReps; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns := float64(elapsed.Nanoseconds()) / float64(iters)
		if rep == 0 || ns < nsPerOp {
			n := int64(iters)
			nsPerOp = ns
			bytesPerOp = int64(m1.TotalAlloc-m0.TotalAlloc) / n
			allocsPerOp = int64(m1.Mallocs-m0.Mallocs) / n
		}
	}
	return nsPerOp, bytesPerOp, allocsPerOp
}

func measureSim(name string, n int) benchResult {
	tr := transport.NewSim()
	if err := tr.Provision([]transport.EdgeProfile{{ID: "a"}}); err != nil {
		fatalBench(err)
	}
	defer tr.Close()
	clk := vclock.NewSim()
	path := tr.ClientEdge(0)
	var ns float64
	var bpo, apo int64
	clk.Run(func() {
		ns, bpo, apo = measure(benchIters, func() { path.Send(clk, n) })
	})
	return benchResult{
		Name: "BenchmarkTransport/sim/" + name, Transport: "sim",
		PayloadBytes: n, Iterations: benchIters,
		NsPerOp: ns, BytesPerOp: bpo, AllocsPerOp: apo,
	}
}

func measureTCP(name string, n int, traced bool) benchResult {
	tr := transport.NewTCP()
	if err := tr.Provision([]transport.EdgeProfile{{ID: "a"}}); err != nil {
		fatalBench(err)
	}
	defer tr.Close()
	clk := vclock.NewReal()
	label := "tcp"
	var op func()
	path := tr.ClientEdge(0)
	if traced {
		label = "tcp-traced"
		o := obs.New()
		tr.SetObs(o, clk)
		tc := &wire.TraceCtx{Trace: 1, Parent: 2}
		op = func() { transport.SendCtx(path, clk, n, tc) }
	} else {
		op = func() { path.Send(clk, n) }
	}
	op() // dial outside the timer
	ns, bpo, apo := measure(benchIters, op)
	return benchResult{
		Name: "BenchmarkTransport/" + label + "/" + name, Transport: label,
		PayloadBytes: n, Iterations: benchIters,
		NsPerOp: ns, BytesPerOp: bpo, AllocsPerOp: apo,
	}
}

// runClusterScaleBench measures fleet-simulation throughput at scale —
// the BenchmarkClusterScale curve (16 cameras per edge, 8 frames per
// camera) up to maxCams cameras. Each point runs the full cluster (edge
// pipelines, batched cloud validation, report merge) on the sharded sim
// clock; best of benchScaleReps runs is recorded, since a cold run pays
// one-time seed-expansion and pool-fill costs.
func runClusterScaleBench(maxCams int) []benchResult {
	const framesPerCam = 8
	const benchScaleReps = 3
	profiles := croesus.Videos()
	var out []benchResult
	for _, tc := range []struct{ cams, edges int }{{64, 4}, {256, 16}, {1024, 64}} {
		if tc.cams > maxCams {
			continue
		}
		cams := make([]croesus.CameraSpec, tc.cams)
		for i := range cams {
			cams[i] = croesus.CameraSpec{
				Profile: profiles[i%len(profiles)],
				Seed:    int64(11 + i*101),
				Frames:  framesPerCam,
			}
		}
		edges := make([]croesus.EdgeSpec, tc.edges)
		for i := range edges {
			edges[i] = croesus.EdgeSpec{ID: fmt.Sprintf("edge-%02d", i)}
		}
		run := func() time.Duration {
			t0 := time.Now()
			rep, err := croesus.RunCluster(croesus.ClusterConfig{
				Clock:   croesus.NewSimClock(),
				Cameras: cams,
				Edges:   edges,
				Batcher: croesus.BatcherConfig{MaxBatch: 8, SLO: 80 * time.Millisecond},
			})
			if err != nil {
				fatalBench(err)
			}
			if rep.Frames != tc.cams*framesPerCam {
				fatalBench(fmt.Errorf("cams-%d: lost frames: %d of %d", tc.cams, rep.Frames, tc.cams*framesPerCam))
			}
			return time.Since(t0)
		}
		run() // warmup: pools
		best := run()
		for rep := 1; rep < benchScaleReps; rep++ {
			if d := run(); d < best {
				best = d
			}
		}
		frames := tc.cams * framesPerCam
		r := benchResult{
			Name:         fmt.Sprintf("BenchmarkClusterScale/cams-%d", tc.cams),
			Iterations:   benchScaleReps,
			NsPerOp:      float64(best.Nanoseconds()),
			Cameras:      tc.cams,
			Edges:        tc.edges,
			FramesPerSec: float64(frames) / best.Seconds(),
		}
		fmt.Printf("%-44s %8d cams %4d edges  %10.0f frames/s  (%s/run)\n",
			r.Name, tc.cams, tc.edges, r.FramesPerSec, best.Round(time.Millisecond))
		out = append(out, r)
	}
	return out
}

// compareBench runs the transport bench and gates it against a recorded
// baseline: any case present in both whose ns_per_op grew by more than
// regressionThreshold fails. Returns the number of regressions.
func compareBench(baselinePath string, results []benchResult) int {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fatalBench(err)
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalBench(fmt.Errorf("%s: %w", baselinePath, err))
	}
	baseline := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	regressions := 0
	for _, r := range results {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Printf("%-44s %10.1f ns/op  (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		verdict := "ok"
		if ratio > 1+regressionThreshold {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-44s %10.1f ns/op  baseline %10.1f  %+6.1f%%  %s\n",
			r.Name, r.NsPerOp, b.NsPerOp, (ratio-1)*100, verdict)
	}
	return regressions
}

func writeBenchJSON(path, command string, results []benchResult, notes string) {
	f := benchFile{
		Benchmark: "BenchmarkTransport + BenchmarkClusterScale",
		Date:      time.Now().Format("2006-01-02"),
		Command:   command,
		Notes:     notes,
		Results:   results,
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatalBench(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatalBench(err)
	}
	fmt.Printf("wrote %s (%d cases)\n", path, len(results))
}

func fatalBench(err error) {
	fmt.Fprintf(os.Stderr, "croesus-bench: %v\n", err)
	os.Exit(1)
}
