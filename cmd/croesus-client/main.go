// Command croesus-client streams a synthetic video to an edge node and
// reports per-frame initial/final latencies, corrections, and apologies —
// the V/AR headset of the paper's running example.
//
// Usage:
//
//	croesus-client -edge localhost:9401 -video park -frames 50 -fps 2
//	croesus-client -camera cam0 -control 127.0.0.1:0 -report cam0.json
//
// The streaming loop is fleet.CamStream, so the client survives edge
// restarts by redialing (frames submitted while the edge is dark count as
// dropped) and takes live control ops over -control: rate shifts,
// redials to a new edge (camera migration), and a graceful quit. SIGTERM
// takes the same graceful path: the stream stops, in-flight frames drain
// briefly, and the -report JSON and -trace JSONL still flush.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"croesus/internal/fleet"
	"croesus/internal/obs"
	"croesus/internal/video"
)

func profileByName(name string) (video.Profile, bool) {
	for _, p := range video.AllProfiles() {
		switch name {
		case p.Name:
			return p, true
		}
	}
	switch name {
	case "park":
		return video.ParkDog(), true
	case "street":
		return video.StreetVehicles(), true
	case "airport":
		return video.AirportRunway(), true
	case "mall":
		return video.MallSurveillance(), true
	case "pedestrians":
		return video.StreetPedestrians(), true
	}
	return video.Profile{}, false
}

func main() {
	var (
		edgeAddr     = flag.String("edge", "localhost:9401", "edge node address")
		vid          = flag.String("video", "park", "video: park, street, airport, mall, pedestrians")
		camera       = flag.String("camera", "client", "camera identity in traces and the fleet report")
		frames       = flag.Int("frames", 30, "number of frames to stream")
		fps          = flag.Float64("fps", 2, "capture rate (frames per second; 0 keeps the profile's rate)")
		seed         = flag.Int64("seed", 11, "video generator seed")
		padding      = flag.Int("padding", 0, "extra payload bytes per frame (simulates encoded size on the wire)")
		timeScale    = flag.Float64("timescale", 1.0, "wall pacing compression: the capture interval sleeps interval×timescale")
		frameTimeout = flag.Duration("frame-timeout", 30*time.Second, "wall bound on one frame's wait before it counts as dropped")
		controlAddr  = flag.String("control", "", "serve the fleet control channel on this address (e.g. 127.0.0.1:0)")
		readyFile    = flag.String("ready-file", "", "write a JSON ready file with the control address once streaming starts")
		reportPath   = flag.String("report", "", "write the stream's report JSON to this file at exit (normal end, quit op, or SIGTERM)")
		quiet        = flag.Bool("quiet", false, "suppress per-frame output (the summary and errors still print)")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics (Prometheus text), /debug/vars (expvar), and /debug/pprof on this address (e.g. 127.0.0.1:9413)")
		traceOut     = flag.String("trace", "", "open a distributed trace per frame, record client.frame spans, and write them as JSONL to this file at exit (merge with croesus-trace)")
	)
	flag.Parse()

	prof, ok := profileByName(*vid)
	if !ok {
		log.Fatalf("croesus-client: unknown video %q", *vid)
	}
	if *fps > 0 {
		prof.FPS = *fps
	}
	var o *obs.Obs
	if *debugAddr != "" || *traceOut != "" {
		o = obs.New()
		o.Tracer().SetProc(*camera)
	}
	if *debugAddr != "" {
		bound, err := obs.ServeDebug(*debugAddr, o.Reg)
		if err != nil {
			log.Fatalf("croesus-client: %v", err)
		}
		log.Printf("croesus-client: debug endpoint on http://%s/metrics", bound)
	}

	var onFrame func(fleet.FrameRecord)
	if !*quiet {
		onFrame = func(r fleet.FrameRecord) {
			fmt.Printf("frame %3d: initial %4d labels in %7.1fms | final %4d labels in %7.1fms | cloud=%-5v shed=%-5v corrections=%d apologies=%d\n",
				r.Index, r.InitialLabels, float64(r.InitialLatency)/float64(time.Millisecond),
				r.FinalLabels, float64(r.FinalLatency)/float64(time.Millisecond),
				r.SentToCloud, r.Shed, r.Corrections, r.Apologies)
		}
	}
	cs := fleet.NewCamStream(fleet.CamConfig{
		Camera:       *camera,
		Edge:         *edgeAddr,
		Profile:      prof,
		Seed:         *seed,
		Frames:       *frames,
		Padding:      *padding,
		TimeScale:    *timeScale,
		FrameTimeout: *frameTimeout,
		Obs:          o,
		Logf:         log.Printf,
		OnFrame:      onFrame,
	})

	var ctl *fleet.ControlServer
	if *controlAddr != "" {
		var err error
		ctl, err = fleet.ServeControl(*controlAddr, fleet.ClientHandlers(cs, nil))
		if err != nil {
			log.Fatalf("croesus-client: control: %v", err)
		}
		log.Printf("croesus-client: control channel on %s", ctl.Addr())
	}
	if *readyFile != "" {
		info := fleet.ReadyInfo{Role: "client"}
		if ctl != nil {
			info.Control = ctl.Addr()
		}
		if err := fleet.WriteReady(*readyFile, info); err != nil {
			log.Fatalf("croesus-client: ready file: %v", err)
		}
	}

	// SIGTERM/SIGINT stop the stream gracefully; the report and trace
	// below still flush.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("croesus-client: signal — stopping the stream")
		cs.Stop()
	}()

	log.Printf("croesus-client: streaming %d frames of %s to %s at %.1f fps", *frames, prof.Name, *edgeAddr, prof.FPS)
	rep := cs.Run()
	if ctl != nil {
		ctl.Close()
	}

	printSummary(rep)
	if *reportPath != "" {
		if err := writeReport(*reportPath, rep); err != nil {
			log.Fatalf("croesus-client: report: %v", err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("croesus-client: trace: %v", err)
		}
		defer f.Close()
		spans := o.Tracer().Spans()
		if err := obs.WriteJSONL(f, spans); err != nil {
			log.Fatalf("croesus-client: trace: %v", err)
		}
		log.Printf("croesus-client: wrote %s (%s)", *traceOut, obs.DescribeTrace(spans))
	}
}

func printSummary(rep fleet.ClientReport) {
	var sumInit, sumFinal time.Duration
	var answered, sent, shed, corrections, apologies int
	for _, r := range rep.Frames {
		if r.Dropped {
			continue
		}
		answered++
		sumInit += r.InitialLatency
		sumFinal += r.FinalLatency
		corrections += r.Corrections
		apologies += r.Apologies
		if r.SentToCloud {
			sent++
		}
		if r.Shed {
			shed++
		}
	}
	if answered == 0 {
		fmt.Printf("\nsummary: %d frames submitted, none answered (%d dropped)\n", rep.Submitted, rep.Dropped)
		return
	}
	n := time.Duration(answered)
	fmt.Printf("\nsummary: %d frames (%d dropped) | BU %.1f%% | %d shed by the cloud | mean initial %.1fms | mean final %.1fms | %d corrections | %d apologies\n",
		answered, rep.Dropped, 100*float64(sent)/float64(answered), shed,
		float64(sumInit/n)/float64(time.Millisecond), float64(sumFinal/n)/float64(time.Millisecond),
		corrections, apologies)
}

// writeReport atomically writes the stream report JSON (write then
// rename, so a collector never reads a torn file).
func writeReport(path string, rep fleet.ClientReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
