package fleet

import (
	"time"

	"croesus/internal/cluster"
	"croesus/internal/faults"
	"croesus/internal/obs"
	"croesus/internal/txn"
)

// FrameRecord is one frame's outcome as the camera saw it. Latencies are
// wall durations; the orchestrator normalizes them by the fleet's time
// scale when merging, so a scaled run reports modeled latencies.
type FrameRecord struct {
	Index          int           `json:"index"`
	InitialLatency time.Duration `json:"initial_latency"`
	FinalLatency   time.Duration `json:"final_latency"`
	SentToCloud    bool          `json:"sent_to_cloud,omitempty"`
	Shed           bool          `json:"shed,omitempty"`
	Corrections    int           `json:"corrections,omitempty"`
	Apologies      int           `json:"apologies,omitempty"`
	InitialLabels  int           `json:"initial_labels,omitempty"`
	FinalLabels    int           `json:"final_labels,omitempty"`
	// Dropped marks a frame that never completed: the edge was dark,
	// draining, or the wait timed out. Dropped frames carry no latencies.
	Dropped bool `json:"dropped,omitempty"`
}

// ClientReport is one camera process's run summary.
type ClientReport struct {
	Camera string `json:"camera"`
	Video  string `json:"video"`
	Edge   string `json:"edge"` // edge addr at end of run

	Frames    []FrameRecord `json:"frames"`
	Submitted int           `json:"submitted"`
	Answered  int           `json:"answered"`
	Dropped   int           `json:"dropped"`
	// Redials counts reconnections — crash recoveries and migrations.
	Redials int  `json:"redials"`
	Stopped bool `json:"stopped,omitempty"` // retired by camera_leave / SIGTERM
}

// EdgeReport is one edge process's run summary, fetched over the control
// channel (OpReport).
type EdgeReport struct {
	Edge        string    `json:"edge"`
	Served      int64     `json:"served"`
	Shed        int64     `json:"shed"`
	Dropped     int64     `json:"dropped"`
	WALReplayed int       `json:"wal_replayed"`
	Draining    bool      `json:"draining,omitempty"`
	Txn         txn.Stats `json:"txn"`
	StoreKeys   int       `json:"store_keys"`

	// Durability verdict from OpVerify: replaying the WAL must
	// reproduce the live store.
	DurableRecords int    `json:"durable_records,omitempty"`
	DurableOK      bool   `json:"durable_ok,omitempty"`
	DurableErr     string `json:"durable_err,omitempty"`
}

// CloudReport is the cloud process's run summary (OpReport).
type CloudReport struct {
	Handled int64                `json:"handled"`
	Shed    int64                `json:"shed"`
	Batcher cluster.BatcherStats `json:"batcher"`
}

// crashRecord is one crash/respawn cycle the orchestrator executed.
type crashRecord struct {
	edge     string
	downFor  time.Duration // wall, zero if never restarted
	replayed int
}

// mergeReport folds the per-process reports into the same ClusterReport
// shape the in-process deployments produce, so one scenario's sim, TCP,
// and fleet runs are comparable side by side. scale is the run's time
// scale: wall latencies divide by it to land in modeled time. camEdge maps
// each camera to the id of the edge it ended on (a ClientReport knows only
// the socket address it dialed). Accuracy
// (F1) needs ground truth the orchestrator does not recompute, so
// Summary carries counts and latencies only.
func mergeReport(elapsed time.Duration, scale float64, clients []ClientReport, camEdge map[string]string,
	edges []EdgeReport, cloud *CloudReport, crashes []crashRecord, dyn cluster.DynamicReport) *cluster.ClusterReport {
	if scale <= 0 {
		scale = 1
	}
	norm := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / scale)
	}
	r := &cluster.ClusterReport{
		Policy:  "fleet",
		Elapsed: norm(elapsed),
	}
	var fleetInit, fleetFinal obs.Histogram
	for _, cr := range clients {
		var init, final obs.Histogram
		rep := cluster.CameraReport{Camera: cr.Camera, Edge: camEdge[cr.Camera], Left: cr.Stopped, Dropped: cr.Dropped}
		rep.Summary.Video = cr.Video
		for _, f := range cr.Frames {
			if f.Dropped {
				continue
			}
			rep.Summary.Frames++
			init.Observe(norm(f.InitialLatency))
			final.Observe(norm(f.FinalLatency))
			if f.SentToCloud {
				if f.Shed {
					rep.Summary.Shed++
				} else {
					rep.Summary.Validated++
				}
			}
			rep.Summary.Corrections += f.Corrections
			rep.Summary.Apologies += f.Apologies
		}
		if rep.Summary.Frames > 0 {
			rep.Summary.BU = float64(rep.Summary.Validated+rep.Summary.Shed) / float64(rep.Summary.Frames)
		}
		fleetInit.Merge(&init)
		fleetFinal.Merge(&final)
		rep.InitialP50 = init.Quantile(0.50)
		rep.InitialP95 = init.Quantile(0.95)
		rep.InitialP99 = init.Quantile(0.99)
		rep.FinalP50 = final.Quantile(0.50)
		rep.FinalP95 = final.Quantile(0.95)
		rep.FinalP99 = final.Quantile(0.99)
		r.Cameras = append(r.Cameras, rep)
		r.Frames += rep.Summary.Frames
		r.Validated += rep.Summary.Validated
		r.Shed += rep.Summary.Shed
		r.Corrections += rep.Summary.Corrections
		r.Apologies += rep.Summary.Apologies
		dyn.FramesDropped += cr.Dropped
	}
	if r.Elapsed > 0 {
		r.ThroughputFPS = float64(r.Frames) / r.Elapsed.Seconds()
	}
	r.InitialP50 = fleetInit.Quantile(0.50)
	r.InitialP95 = fleetInit.Quantile(0.95)
	r.InitialP99 = fleetInit.Quantile(0.99)
	r.FinalP50 = fleetFinal.Quantile(0.50)
	r.FinalP95 = fleetFinal.Quantile(0.95)
	r.FinalP99 = fleetFinal.Quantile(0.99)
	for _, er := range edges {
		r.TxnsTriggered += int(er.Txn.InitialCommits)
		r.Lost += int(er.Dropped)
	}
	if cloud != nil {
		r.Batcher = cloud.Batcher
	}
	if len(crashes) > 0 || dyn.CloudLinkOutages > 0 {
		var rec obs.Histogram
		f := &faults.Report{}
		f.LinkOutages = int64(dyn.CloudLinkOutages)
		for _, c := range crashes {
			f.Crashes++
			if c.downFor > 0 {
				f.Restarts++
				rec.Observe(norm(c.downFor))
			}
			f.ReplayedRecords += int64(c.replayed)
		}
		f.RecoveryP50 = rec.Quantile(0.50)
		f.RecoveryP95 = rec.Quantile(0.95)
		f.RecoveryP99 = rec.Quantile(0.99)
		r.Faults = f
	}
	if dyn != (cluster.DynamicReport{}) {
		d := dyn
		r.Dynamic = &d
	}
	return r
}
