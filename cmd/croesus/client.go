package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"croesus/internal/fleet"
	"croesus/internal/video"
)

// videos resolves -video: each profile by its short name and by its
// canonical name (the one croesus fleet passes).
var videos = map[string]func() video.Profile{
	"park": video.ParkDog, "v1-park-dog": video.ParkDog,
	"street": video.StreetVehicles, "v2-street-vehicles": video.StreetVehicles,
	"airport": video.AirportRunway, "v3-airport-airplane": video.AirportRunway,
	"mall": video.MallSurveillance, "v4-mall-person": video.MallSurveillance,
	"pedestrians": video.StreetPedestrians, "v5-street-person": video.StreetPedestrians,
}

// runClient streams a synthetic video to an edge node and reports
// per-frame initial/final latencies, corrections, and apologies — the V/AR
// headset of the paper's running example.
//
//	croesus client -edge localhost:9401 -video park -frames 50 -fps 2
//	croesus client -camera cam0 -control 127.0.0.1:0 -report cam0.json
//
// The streaming loop is fleet.CamStream, so the client survives edge
// restarts by redialing (frames submitted while the edge is dark count as
// dropped) and takes live control ops over -control: rate shifts,
// redials to a new edge (camera migration), and a graceful quit. SIGTERM
// takes the same graceful path: the stream stops, in-flight frames drain
// briefly, and the -report JSON and -trace file still flush.
func runClient(args []string, stdout, stderr io.Writer) int {
	h := newHarness("client", stderr, log.LstdFlags, debugFlag|traceFlag|controlFlags)
	var (
		edgeAddr     = h.fs.String("edge", "localhost:9401", "edge node address")
		vid          = h.fs.String("video", "park", "video: park, street, airport, mall, pedestrians")
		camera       = h.fs.String("camera", "client", "camera identity in traces and the fleet report")
		frames       = h.fs.Int("frames", 30, "number of frames to stream")
		fps          = h.fs.Float64("fps", 2, "capture rate (frames per second; 0 keeps the profile's rate)")
		seed         = h.fs.Int64("seed", 11, "video generator seed")
		padding      = h.fs.Int("padding", 0, "extra payload bytes per frame (simulates encoded size on the wire)")
		timeScale    = h.fs.Float64("timescale", 1.0, "wall pacing compression: the capture interval sleeps interval×timescale")
		frameTimeout = h.fs.Duration("frame-timeout", 30*time.Second, "wall bound on one frame's wait before it counts as dropped")
		reportPath   = h.fs.String("report", "", "write the stream's report JSON to this file at exit (normal end, quit op, or SIGTERM)")
		quiet        = h.fs.Bool("quiet", false, "suppress per-frame output (the summary and errors still print)")
	)
	if code, ok := h.parse(args); !ok {
		return code
	}
	newProfile, ok := videos[*vid]
	if !ok {
		return h.usage("unknown video %q", *vid)
	}
	prof := newProfile()
	if *fps > 0 {
		prof.FPS = *fps
	}
	if err := h.start(*camera); err != nil {
		h.log.Printf("client: %v", err)
		return 1
	}

	var onFrame func(fleet.FrameRecord)
	if !*quiet {
		onFrame = func(r fleet.FrameRecord) {
			fmt.Fprintf(stdout, "frame %3d: initial %4d labels in %7.1fms | final %4d labels in %7.1fms | cloud=%-5v shed=%-5v corrections=%d apologies=%d\n",
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
		Obs:          h.obs,
		Logf:         h.log.Printf,
		OnFrame:      onFrame,
	})
	if err := h.serve("", fleet.ClientHandlers(cs)); err != nil {
		h.log.Printf("client: %v", err)
		return h.finish(1)
	}

	// A signal stops the stream gracefully, as a quit op does; the report
	// and trace below still flush.
	stopped := make(chan struct{})
	go func() {
		h.wait()
		cs.Stop()
		close(stopped)
	}()
	h.log.Printf("client: streaming %d frames of %s to %s at %.1f fps", *frames, prof.Name, *edgeAddr, prof.FPS)
	rep := cs.Run()
	h.requestQuit()
	<-stopped

	printSummary(stdout, rep)
	code := 0
	if *reportPath != "" {
		if err := writeReport(*reportPath, rep); err != nil {
			h.log.Printf("client: report: %v", err)
			code = 1
		}
	}
	return h.finish(code)
}

func printSummary(w io.Writer, rep fleet.ClientReport) {
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
		fmt.Fprintf(w, "\nsummary: %d frames submitted, none answered (%d dropped)\n", rep.Submitted, rep.Dropped)
		return
	}
	n := time.Duration(answered)
	fmt.Fprintf(w, "\nsummary: %d frames (%d dropped) | BU %.1f%% | %d shed by the cloud | mean initial %.1fms | mean final %.1fms | %d corrections | %d apologies\n",
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
