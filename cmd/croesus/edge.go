package main

import (
	"io"
	"log"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/fleet"
	"croesus/internal/node"
	"croesus/internal/tcpnet"
	"croesus/internal/transport"
)

// runEdge runs the edge node: the compact model, the data store with
// multi-stage (MS-IA or MS-SR) transaction processing, bandwidth
// thresholding, and the cloud validation path — the same fleet-node
// assembly and Figure-1 pipeline the simulated fleet runs, over real
// sockets.
//
//	croesus edge -addr :9401 -cloud localhost:9402 -thetal 0.4 -thetau 0.6
//	croesus edge -protocol ms-sr -minconf 0.10 -overlap 0.15
//	croesus edge -wal edge.wal -control 127.0.0.1:0 -ready-file edge.ready
//
// Under croesus fleet the orchestrator passes -control (the fleet
// control channel: reports, drain, link faults, WAL checkpoint/verify,
// quit), -ready-file (bound-address handshake for :0 listeners), -wal
// (crash durability: the edge runs as a one-partition twopc fleet that
// logs each section commit as one batch, and a SIGKILLed edge respawned
// on the same path replays its committed sections — never half of one
// between checkpoints; a checkpoint snapshots running sections'
// uncommitted writes too, see ROADMAP item 10),
// and -shape-client/-shape-cloud (the sim's modeled link parameters on
// the real hops).
func runEdge(args []string, stdout, stderr io.Writer) int {
	h := newHarness("edge", stderr, log.LstdFlags, debugFlag|traceFlag|controlFlags)
	var (
		addr        = h.fs.String("addr", ":9401", "listen address for clients")
		cloudAddr   = h.fs.String("cloud", "", "cloud node address (empty: edge-only mode)")
		id          = h.fs.String("id", "edge", "edge identity in fleet reports, metrics, and traces")
		seed        = h.fs.Int64("seed", 42, "model seed (must match cloud/client)")
		thetaL      = h.fs.Float64("thetal", 0.40, "lower confidence threshold θL (discard below)")
		thetaU      = h.fs.Float64("thetau", 0.62, "upper confidence threshold θU (keep above)")
		minConf     = h.fs.Float64("minconf", 0.05, "minimum detection confidence kept at input processing")
		overlap     = h.fs.Float64("overlap", 0.10, "label-matching overlap threshold for cloud corrections")
		protocol    = h.fs.String("protocol", "ms-ia", "multi-stage protocol: ms-ia or ms-sr")
		slots       = h.fs.Int("slots", core.DefaultEdgeSlots, "concurrent edge inferences across all clients")
		timeScale   = h.fs.Float64("timescale", 1.0, "inference latency multiplier")
		keys        = h.fs.Int("keys", 1000, "database key space for the per-detection transactions")
		walPath     = h.fs.String("wal", "", "write-ahead log path: log each committed section's writes plus a commit marker in one batch, replay the committed sections at startup (crash durability)")
		walNoSync   = h.fs.Bool("wal-nosync", false, "skip the per-append fsync (process-crash safe; only a machine crash can lose the tail)")
		shapeClient = h.fs.String("shape-client", "", "shape the client→edge hop with a modeled link \"propagation:bytes-per-sec\" (e.g. 5ms:1.25e9)")
		shapeCloud  = h.fs.String("shape-cloud", "", "shape the edge→cloud hop with a modeled link \"propagation:bytes-per-sec\"")
	)
	if code, ok := h.parse(args); !ok {
		return code
	}
	if *keys <= 0 {
		return h.usage("-keys %d must be > 0", *keys)
	}
	proto, err := node.ParseProtocol(*protocol)
	if err != nil {
		return h.usage("%v", err)
	}
	clientShape, err := transport.ParseLinkSpec(*shapeClient)
	if err != nil {
		return h.usage("-shape-client: %v", err)
	}
	cloudShape, err := transport.ParseLinkSpec(*shapeCloud)
	if err != nil {
		return h.usage("-shape-cloud: %v", err)
	}
	if err := h.start(*id); err != nil {
		h.log.Printf("edge: %v", err)
		return 1
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
		Logf:            h.log.Printf,
		Obs:             h.obs,
		EdgeID:          *id,
		WALPath:         *walPath,
		WALNoSync:       *walNoSync,
		ClientEdgeShape: clientShape,
		EdgeCloudShape:  cloudShape,
	})
	if err != nil {
		h.log.Printf("edge: %v", err)
		return h.finish(1)
	}
	bound, err := srv.Listen(*addr)
	if err == nil {
		err = h.serve(bound, fleet.EdgeHandlers(*id, srv, h.requestQuit))
	}
	if err != nil {
		h.log.Printf("edge: %v", err)
		srv.Close()
		return h.finish(1)
	}
	if n := srv.WALReplayed(); n > 0 {
		h.log.Printf("edge: replayed %d WAL records from %s", n, *walPath)
	}
	mode := "croesus (cloud " + *cloudAddr + ")"
	if *cloudAddr == "" {
		mode = "edge-only"
	}
	h.log.Printf("edge: serving on %s, mode %s, protocol %s, thresholds (%.2f, %.2f), minconf %.2f, overlap %.2f",
		bound, mode, proto, *thetaL, *thetaU, *minConf, *overlap)

	h.wait()
	st := srv.Manager().Stats()
	h.log.Printf("edge: shutting down — %d frames (%d shed by the cloud), %d initial commits, %d final commits, %d aborts, %d apologies",
		srv.Served(), srv.Shed(), st.InitialCommits, st.FinalCommits, st.Aborts, st.Apologies)
	srv.Close()
	return h.finish(0)
}
