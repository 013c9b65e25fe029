package main

import (
	"io"
	"log"
	"time"

	"croesus/internal/detect"
	"croesus/internal/fleet"
	"croesus/internal/tcpnet"
)

// runCloud runs the cloud node: it listens for edge connections and
// answers frame-detection requests with the full model behind the fleet's
// shared SLO-aware validation batcher — requests from every connected edge
// coalesce into batches, and under overload the lowest-margin requests are
// shed back to their edges.
//
//	croesus cloud -addr :9402 -model 416 -timescale 1.0
//	croesus cloud -batch 8 -slo 80ms -pending 16 -cloud-speed 0.5
//	croesus cloud -control 127.0.0.1:0 -ready-file cloud.ready
//
// Under croesus fleet the orchestrator passes -control (the fleet
// control channel: report, quit) and -ready-file (bound-address
// handshake for :0 listeners).
func runCloud(args []string, stdout, stderr io.Writer) int {
	h := newHarness("cloud", stderr, log.LstdFlags, debugFlag|traceFlag|controlFlags)
	var (
		addr       = h.fs.String("addr", ":9402", "listen address")
		model      = h.fs.Int("model", 416, "cloud model size: 320, 416, or 608")
		seed       = h.fs.Int64("seed", 42, "model seed (must match the edge/client seed)")
		timeScale  = h.fs.Float64("timescale", 1.0, "inference latency multiplier (use <1 to speed up demos)")
		maxBatch   = h.fs.Int("batch", 0, "batch size cap (0 = fleet default 8)")
		slo        = h.fs.Duration("slo", 0, "batch flush deadline (0 = fleet default 60ms)")
		pending    = h.fs.Int("pending", 0, "admission-control cap on outstanding validations (0 = 4×batch)")
		cloudSpeed = h.fs.Float64("cloud-speed", 0, "cloud machine speed factor (0 = reference machine; lower = starved GPU)")
	)
	if code, ok := h.parse(args); !ok {
		return code
	}
	if err := h.start("cloud"); err != nil {
		h.log.Printf("cloud: %v", err)
		return 1
	}
	m := detect.YOLOv3Sim(detect.YOLOSize(*model), *seed)
	srv, err := tcpnet.NewCloudServerWith(tcpnet.CloudConfig{
		Model:      m,
		TimeScale:  *timeScale,
		MaxBatch:   *maxBatch,
		SLO:        *slo,
		MaxPending: *pending,
		CloudSpeed: *cloudSpeed,
		Obs:        h.obs,
	})
	if err != nil {
		h.log.Printf("cloud: %v", err)
		return h.finish(1)
	}
	srv.Logf = h.log.Printf
	bound, err := srv.Listen(*addr)
	if err == nil {
		err = h.serve(bound, fleet.CloudHandlers(srv, h.requestQuit))
	}
	if err != nil {
		h.log.Printf("cloud: %v", err)
		srv.Close()
		return h.finish(1)
	}
	h.log.Printf("cloud: %s serving on %s (timescale %.2f, batched + shedding validator)", m.Name(), bound, *timeScale)

	h.wait()
	bs := srv.BatcherStats()
	h.log.Printf("cloud: shutting down after %d frames (%d shed); %d batches, mean %.1f, max flush wait %s",
		srv.Handled(), srv.Shed(), bs.Batches, bs.MeanBatch, bs.MaxFlushWait.Round(time.Millisecond))
	srv.Close()
	return h.finish(0)
}
