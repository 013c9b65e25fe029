// Command croesus-edge runs the edge node: the compact model, the data
// store with multi-stage (MS-IA or MS-SR) transaction processing,
// bandwidth thresholding, and the cloud validation path — the same
// fleet-node assembly and Figure-1 pipeline the simulated fleet runs,
// over real sockets.
//
// Usage:
//
//	croesus-edge -addr :9401 -cloud localhost:9402 -thetal 0.4 -thetau 0.6
//	croesus-edge -protocol ms-sr -minconf 0.10 -overlap 0.15
//	croesus-edge -wal edge.wal -control 127.0.0.1:0 -ready-file edge.ready
//
// Under croesus-fleet the orchestrator passes -control (the fleet
// control channel: reports, drain, link faults, WAL checkpoint/verify,
// quit), -ready-file (bound-address handshake for :0 listeners), -wal
// (crash durability: the edge runs as a one-partition twopc fleet that
// logs each section commit as one batch, and a SIGKILLed edge respawned
// on the same path replays its committed sections — never half of one
// between checkpoints; a checkpoint snapshots running sections'
// uncommitted writes too, see ROADMAP item 3(d)),
// and -shape-client/-shape-cloud (the sim's modeled link parameters on
// the real hops).
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/fleet"
	"croesus/internal/node"
	"croesus/internal/obs"
	"croesus/internal/tcpnet"
	"croesus/internal/transport"
)

func main() {
	var (
		addr        = flag.String("addr", ":9401", "listen address for clients")
		cloudAddr   = flag.String("cloud", "", "cloud node address (empty: edge-only mode)")
		id          = flag.String("id", "edge", "edge identity in fleet reports, metrics, and traces")
		seed        = flag.Int64("seed", 42, "model seed (must match cloud/client)")
		thetaL      = flag.Float64("thetal", 0.40, "lower confidence threshold θL (discard below)")
		thetaU      = flag.Float64("thetau", 0.62, "upper confidence threshold θU (keep above)")
		minConf     = flag.Float64("minconf", 0.05, "minimum detection confidence kept at input processing")
		overlap     = flag.Float64("overlap", 0.10, "label-matching overlap threshold for cloud corrections")
		protocol    = flag.String("protocol", "ms-ia", "multi-stage protocol: ms-ia or ms-sr")
		slots       = flag.Int("slots", 4, "concurrent edge inferences across all clients")
		timeScale   = flag.Float64("timescale", 1.0, "inference latency multiplier")
		keys        = flag.Int("keys", 1000, "database key space for the per-detection transactions")
		walPath     = flag.String("wal", "", "write-ahead log path: log each committed section's writes plus a commit marker in one batch, replay the committed sections at startup (crash durability)")
		walNoSync   = flag.Bool("wal-nosync", false, "skip the per-append fsync (process-crash safe; only a machine crash can lose the tail)")
		shapeClient = flag.String("shape-client", "", "shape the client→edge hop with a modeled link \"propagation:bytes-per-sec\" (e.g. 5ms:1.25e9)")
		shapeCloud  = flag.String("shape-cloud", "", "shape the edge→cloud hop with a modeled link \"propagation:bytes-per-sec\"")
		controlAddr = flag.String("control", "", "serve the fleet control channel on this address (e.g. 127.0.0.1:0)")
		readyFile   = flag.String("ready-file", "", "write a JSON ready file with the bound addresses once listening")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics (Prometheus text), /debug/vars (expvar), and /debug/pprof on this address (e.g. 127.0.0.1:9411)")
		traceOut    = flag.String("trace", "", "record spans and write them as JSONL to this file at shutdown (merge with croesus-trace)")
	)
	flag.Parse()

	if *keys <= 0 {
		log.Fatalf("croesus-edge: -keys %d must be > 0", *keys)
	}
	proto, err := node.ParseProtocol(*protocol)
	if err != nil {
		log.Fatalf("croesus-edge: %v", err)
	}
	clientShape, err := transport.ParseLinkSpec(*shapeClient)
	if err != nil {
		log.Fatalf("croesus-edge: -shape-client: %v", err)
	}
	cloudShape, err := transport.ParseLinkSpec(*shapeCloud)
	if err != nil {
		log.Fatalf("croesus-edge: -shape-cloud: %v", err)
	}
	var o *obs.Obs
	if *debugAddr != "" || *traceOut != "" {
		o = obs.New()
		o.Tracer().SetProc(*id)
	}
	debugBound := ""
	if *debugAddr != "" {
		debugBound, err = obs.ServeDebug(*debugAddr, o.Reg)
		if err != nil {
			log.Fatalf("croesus-edge: %v", err)
		}
		log.Printf("croesus-edge: debug endpoint on http://%s/metrics", debugBound)
	}
	srv, err := tcpnet.NewEdgeServer(tcpnet.EdgeConfig{
		EdgeModel:       detect.TinyYOLOSim(*seed),
		CloudAddr:       *cloudAddr,
		TimeScale:       *timeScale,
		ThetaL:          *thetaL,
		ThetaU:          *thetaU,
		MinConfidence:   *minConf,
		OverlapMin:      *overlap,
		Protocol:        proto,
		Slots:           *slots,
		Source:          core.NewWorkloadSource(*keys, *seed),
		Logf:            tcpnet.StdLogf("edge"),
		Obs:             o,
		EdgeID:          *id,
		WALPath:         *walPath,
		WALNoSync:       *walNoSync,
		ClientEdgeShape: clientShape,
		EdgeCloudShape:  cloudShape,
	})
	if err != nil {
		log.Fatalf("croesus-edge: %v", err)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("croesus-edge: %v", err)
	}
	if n := srv.WALReplayed(); n > 0 {
		log.Printf("croesus-edge: replayed %d WAL records from %s", n, *walPath)
	}
	mode := "croesus (cloud " + *cloudAddr + ")"
	if *cloudAddr == "" {
		mode = "edge-only"
	}
	log.Printf("croesus-edge: serving on %s, mode %s, protocol %s, thresholds (%.2f, %.2f), minconf %.2f, overlap %.2f",
		bound, mode, proto, *thetaL, *thetaU, *minConf, *overlap)

	// The fleet control channel: the orchestrator's quit op and a SIGTERM
	// take the same graceful-shutdown path (flushed trace, final stats).
	quit := make(chan struct{})
	var once sync.Once
	requestQuit := func() { once.Do(func() { close(quit) }) }
	var ctl *fleet.ControlServer
	if *controlAddr != "" {
		ctl, err = fleet.ServeControl(*controlAddr, fleet.EdgeHandlers(*id, srv, requestQuit))
		if err != nil {
			log.Fatalf("croesus-edge: control: %v", err)
		}
		log.Printf("croesus-edge: control channel on %s", ctl.Addr())
	}
	if *readyFile != "" {
		info := fleet.ReadyInfo{Role: "edge", Addr: bound, Debug: debugBound}
		if ctl != nil {
			info.Control = ctl.Addr()
		}
		if err := fleet.WriteReady(*readyFile, info); err != nil {
			log.Fatalf("croesus-edge: ready file: %v", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case <-quit:
	}
	st := srv.Manager().Stats()
	log.Printf("croesus-edge: shutting down — %d frames (%d shed by the cloud), %d initial commits, %d final commits, %d aborts, %d apologies",
		srv.Served(), srv.Shed(), st.InitialCommits, st.FinalCommits, st.Aborts, st.Apologies)
	if ctl != nil {
		ctl.Close()
	}
	srv.Close()
	if *traceOut != "" {
		writeTrace(*traceOut, o)
	}
}

func writeTrace(path string, o *obs.Obs) {
	f, err := os.Create(path)
	if err != nil {
		log.Printf("croesus-edge: trace: %v", err)
		return
	}
	defer f.Close()
	spans := o.Tracer().Spans()
	if err := obs.WriteJSONL(f, spans); err != nil {
		log.Printf("croesus-edge: trace: %v", err)
		return
	}
	log.Printf("croesus-edge: wrote %s (%s)", path, obs.DescribeTrace(spans))
}
