package main

// The tcp_* workloads: the real-socket deployment — tcpnet.CloudServer and
// tcpnet.EdgeServer on loopback, the code croesus-cloud and croesus-edge
// wrap — driven by tcpnet clients in this process, one goroutine per
// connection. Latencies are wall-clock.

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/metrics"
	"croesus/internal/node"
	"croesus/internal/scenario"
	"croesus/internal/tcpnet"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// frameTimeout is how long a frame may wait for its final reply before it
// counts as failed.
const frameTimeout = 10 * time.Second

// tcpConn is one client connection and the stream it sends.
type tcpConn struct {
	spec    stream
	frames  []*video.Frame
	classes []string // per frame: the query class of its clip
	client  *tcpnet.Client

	late    []time.Duration // open loop: how late each frame was submitted
	results []*tcpnet.FrameResult
	err     error
}

// wait collects the final reply of frame i, giving the whole stream
// frameTimeout beyond deadline rather than each frame its own.
func (c *tcpConn) wait(i int, deadline time.Time) {
	d := time.Until(deadline)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	res, err := c.client.WaitFrame(c.frames[i].Index, d)
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return
	}
	c.results[i] = res
}

// paced submits every frame at its due time whatever the replies do (open
// loop), then collects the replies.
func (c *tcpConn) paced(start time.Time, interval time.Duration, padding int) {
	for i, f := range c.frames {
		// Sleep to just short of the due time and yield through the rest:
		// a bare sleep overshoots by 0.1–0.3 ms here, and the overshoot
		// would be charged to every frame's latency.
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due) - 300*time.Microsecond; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		c.late[i] = time.Since(due)
		if err := c.client.Submit(f, padding); err != nil {
			c.err = err
			return
		}
	}
	deadline := time.Now().Add(frameTimeout)
	for i := range c.frames {
		c.wait(i, deadline)
	}
}

// closed keeps window frames outstanding over frames [from, to): the next
// is submitted when the oldest has its final reply (closed loop).
func (c *tcpConn) closed(from, to, window, padding int) {
	for i := from; i < to; i++ {
		if i-window >= from {
			c.wait(i-window, time.Now().Add(frameTimeout))
		}
		if err := c.client.Submit(c.frames[i], padding); err != nil {
			c.err = err
			return
		}
	}
	deadline := time.Now().Add(frameTimeout)
	for i := to - window; i < to; i++ {
		if i >= from {
			c.wait(i, deadline)
		}
	}
}

func runTCP(m *manifest, dir string, tr *tracing, r *result) error {
	p := m.TCP
	if tr != nil {
		tr.unitUS = p.TimeScale * 1e-3 // every span clock below runs scaled
	}

	// Set-up: servers, connections, videos, warm-up.
	t0 := time.Now()
	all := 0
	for _, s := range m.Streams {
		all += s.Warm + s.Timed
	}
	cloud, err := tcpnet.NewCloudServerWith(tcpnet.CloudConfig{
		Model:     detect.YOLOv3Sim(detect.YOLO416, p.ModelSeed),
		TimeScale: p.TimeScale,
		Obs:       tr.sink("cloud", all),
	})
	if err != nil {
		return err
	}
	defer cloud.Close()
	cloudAddr, err := cloud.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	proto, err := node.ParseProtocol(p.Protocol)
	if err != nil {
		return err
	}
	ecfg := tcpnet.EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(p.ModelSeed),
		CloudAddr: cloudAddr,
		TimeScale: p.TimeScale,
		ThetaL:    0.40, ThetaU: 0.62, // the paper's operating point, as the fleet defaults
		Protocol: proto,
		Slots:    p.Slots,
		Source:   core.NewWorkloadSource(p.Keys, p.KeySeed),
		Obs:      tr.sink("edge", all),
	}
	if p.WAL {
		// A fresh log per repeat: an existing one would be replayed.
		ecfg.WALPath = filepath.Join(dir, "edge.wal")
		ecfg.WALNoSync = true
		if err := os.Remove(ecfg.WALPath); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	edge, err := tcpnet.NewEdgeServer(ecfg)
	if err != nil {
		return err
	}
	defer edge.Close()
	edgeAddr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}

	conns := make([]*tcpConn, len(m.Streams))
	for i, s := range m.Streams {
		cl, err := tcpnet.Dial(edgeAddr)
		if err != nil {
			return err
		}
		defer cl.Close()
		if o := tr.sink("client", all); o != nil {
			cl.EnableTrace(o, vclock.NewScaledReal(p.TimeScale), s.Camera)
		}
		c := &tcpConn{spec: s, client: cl}
		for _, clip := range s.Clips {
			prof, err := scenario.ProfileFor(clip.Profile)
			if err != nil {
				return err
			}
			for _, f := range video.NewGenerator(prof, clip.Seed).Generate(clip.Frames) {
				f.Index = len(c.frames) // the connection's frame number, not the clip's
				c.frames = append(c.frames, f)
				c.classes = append(c.classes, prof.QueryClass)
			}
		}
		c.late = make([]time.Duration, len(c.frames))
		c.results = make([]*tcpnet.FrameResult, len(c.frames))
		conns[i] = c
	}

	meter := &procMeter{trace: tr}
	var wg sync.WaitGroup
	if p.RatePerConn > 0 {
		// Open loop: warm-up frames run straight into the timed ones; the
		// timed section starts at the first timed frame's due time. The
		// connections' schedules interleave evenly.
		interval := time.Duration(float64(time.Second) / p.RatePerConn)
		start := time.Now().Add(10 * time.Millisecond)
		for i, c := range conns {
			wg.Add(1)
			go func(c *tcpConn, offset time.Duration) {
				defer wg.Done()
				c.paced(start.Add(offset), interval, p.Padding)
			}(c, interval*time.Duration(i)/time.Duration(len(conns)))
		}
		time.Sleep(time.Until(start.Add(time.Duration(conns[0].spec.Warm) * interval)))
	} else {
		for _, c := range conns {
			wg.Add(1)
			go func(c *tcpConn) {
				defer wg.Done()
				c.closed(0, c.spec.Warm, p.Window, p.Padding)
			}(c)
		}
		wg.Wait()
	}
	r.E2E["setup_s"] = time.Since(t0).Seconds()

	if err := meter.begin(); err != nil {
		return err
	}
	if p.Window > 0 {
		for _, c := range conns {
			wg.Add(1)
			go func(c *tcpConn) {
				defer wg.Done()
				c.closed(c.spec.Warm, len(c.frames), p.Window, p.Padding)
			}(c)
		}
	}
	wg.Wait()
	if err := meter.end(); err != nil {
		return err
	}

	// Score. Truth is the cloud model's own labels, as in the paper.
	truthModel := detect.YOLOv3Sim(detect.YOLO416, p.ModelSeed)
	var initial, final, late []float64
	var f1 float64
	finalised, sent, corrections, apologies := 0, 0, 0, 0
	for _, c := range conns {
		if c.err != nil {
			r.failf("%s: %v", c.spec.Camera, c.err)
		}
		var counts metrics.Counts
		for i := c.spec.Warm; i < len(c.frames); i++ {
			res := c.results[i]
			if res == nil {
				r.Failed++
				continue
			}
			if res.Shed {
				r.Failed++
			}
			finalised++
			initial = append(initial, msOf(c.late[i]+res.InitialLatency))
			final = append(final, msOf(c.late[i]+res.FinalLatency))
			late = append(late, msOf(c.late[i]))
			if res.SentToCloud {
				sent++
			}
			corrections += res.Corrections
			apologies += len(res.Apologies)
			truth := truthModel.Detect(c.frames[i]).Detections
			counts.Add(metrics.ScoreClass(res.Final, truth, c.classes[i], 0.10))
		}
		f1 += counts.F1() / float64(len(conns))
	}
	if finalised != m.Frames {
		r.failf("%d frames finalised of %d attempted", finalised, m.Frames)
	}
	// The edge counts a frame served after its final reply has left, so
	// the count can trail the last reply by a moment.
	served := edge.Served()
	for deadline := time.Now().Add(time.Second); served != int64(all) && time.Now().Before(deadline); served = edge.Served() {
		time.Sleep(time.Millisecond)
	}
	if served != int64(all) {
		r.failf("edge served %d frames, %d were sent", served, all)
	}
	st := edge.Manager().Stats()
	if open := st.InitialCommits - st.FinalCommits; open < 0 || open > st.Retractions {
		r.failf("unresolved transactions: %d initial commits, %d final, %d retractions", st.InitialCommits, st.FinalCommits, st.Retractions)
	}
	if p.WAL {
		if _, err := edge.VerifyWAL(); err != nil {
			r.failf("WAL: %v", err)
		}
	}

	r.E2E["frames_per_s"] = float64(finalised) / meter.wall
	r.E2E["f1_final"] = f1
	r.latencies(initial, final)
	meter.record(r, m.Frames)

	n, k, kAll := float64(m.Frames), float64(m.Frames)/1000, float64(all)/1000
	l := r.Layer
	if p.RatePerConn > 0 {
		sort.Float64s(late)
		l["client.gen_late_p99_ms"] = percentile(late, 99)
	}
	l["core.cloud_fraction"] = float64(sent) / n
	bs := cloud.BatcherStats()
	l["cluster.batches_per_kframe"] = float64(bs.Batches) / kAll
	l["cluster.mean_batch"] = bs.MeanBatch
	l["cluster.shed"] = float64(bs.Shed)
	// The servers' clocks run scaled; report the flush wait in wall time.
	l["cluster.max_flush_wait_ms"] = msOf(bs.MaxFlushWait) * p.TimeScale
	l["txn.txns_per_frame"] = float64(st.InitialCommits) / float64(all)
	l["txn.corrections_per_kframe"] = float64(corrections) / k
	l["txn.apologies_per_kframe"] = float64(apologies) / k
	l["txn.retractions"] = float64(st.Retractions)
	waits, mean := edge.Manager().Locks.WaitStats()
	l["lock.waits_per_kframe"] = float64(waits) / kAll
	if waits > 0 {
		l["lock.wait_mean_us"] = float64(mean) / 1e3 * p.TimeScale
	}
	reads, writes, _ := edge.Manager().Store.Stats()
	l["store.reads_per_frame"] = float64(reads) / float64(all)
	l["store.writes_per_frame"] = float64(writes) / float64(all)
	return nil
}
