package fleet

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"croesus/internal/obs"
	"croesus/internal/tcpnet"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// CamConfig configures one camera stream.
type CamConfig struct {
	// Camera names the stream (trace identity, report key).
	Camera string
	// Edge is the initial edge address.
	Edge string
	// Profile is the synthetic scene; Seed its generator seed.
	Profile video.Profile
	Seed    int64
	// Frames is the stream length (default 100).
	Frames int
	// Padding adds payload bytes per frame (encoded size on the wire).
	Padding int
	// TimeScale compresses wall pacing: the capture interval sleeps
	// interval×TimeScale real time (0 or 1: full fidelity). Latencies in
	// the report stay wall durations; the orchestrator normalizes.
	TimeScale float64
	// FrameTimeout bounds one frame's wall wait before it counts as
	// dropped (default 30s).
	FrameTimeout time.Duration
	// Obs, when set, opens a distributed trace per frame.
	Obs  *obs.Obs
	Logf func(format string, args ...any)
	// OnFrame, when set, observes each completed frame (CLI printing).
	OnFrame func(FrameRecord)
}

// CamStream is croesus-client's camera streaming loop: it paces frames at the profile's
// capture rate, survives edge restarts by redialing (frames submitted
// while the edge is dark are dropped, matching the in-process fleet's
// outage semantics), and takes live control ops — rate shifts
// (workload_shift), redials to a new edge (migrate_camera), and a
// graceful stop (camera_leave / SIGTERM).
type CamStream struct {
	cfg  CamConfig
	clk  vclock.Clock  // span clock: one epoch for the stream's whole life
	rate atomic.Uint64 // float64 bits; capture-rate multiplier
	stop chan struct{}
	once sync.Once

	mu                  sync.Mutex
	addr                string
	cl                  *tcpnet.Client
	retired             []*tcpnet.Client // replaced conns kept open for in-flight waits
	recs                []*FrameRecord
	submitted, answered int
	redials             int
	dials               int
	stopped             bool
}

// NewCamStream builds a stream; call Run once to play it.
func NewCamStream(cfg CamConfig) *CamStream {
	if cfg.Frames <= 0 {
		cfg.Frames = 100
	}
	if cfg.FrameTimeout <= 0 {
		cfg.FrameTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cs := &CamStream{cfg: cfg, stop: make(chan struct{}), addr: cfg.Edge}
	// One span clock for the stream's whole life, at the fleet's shared
	// scale: a per-dial clock would reset the epoch on every redial and
	// make the stream's spans unalignable with one per-process offset.
	cs.clk = vclock.NewReal()
	if ts := cfg.TimeScale; ts > 0 && ts != 1 {
		cs.clk = vclock.NewScaledReal(ts)
	}
	cs.rate.Store(math.Float64bits(1))
	return cs
}

// SetRate scales the capture rate by mult (>0): the workload_shift control.
func (cs *CamStream) SetRate(mult float64) {
	if mult > 0 {
		cs.rate.Store(math.Float64bits(mult))
	}
}

// Redial points the stream at a new edge address: the migrate_camera
// control. The current connection is retired (in-flight frames finish on
// it); the next frame dials the new address.
func (cs *CamStream) Redial(addr string) {
	cs.mu.Lock()
	cs.addr = addr
	if cs.cl != nil {
		cs.retired = append(cs.retired, cs.cl)
		cs.cl = nil
	}
	cs.mu.Unlock()
}

// Stop ends the stream early (camera_leave, SIGTERM): no more frames are
// submitted; in-flight waits drain briefly.
func (cs *CamStream) Stop() {
	cs.once.Do(func() {
		cs.mu.Lock()
		cs.stopped = true
		cs.mu.Unlock()
		close(cs.stop)
	})
}

func (cs *CamStream) halted() bool {
	select {
	case <-cs.stop:
		return true
	default:
		return false
	}
}

// client returns a live connection, dialing (or redialing) if needed. nil
// means the edge is unreachable right now — the caller drops the frame.
func (cs *CamStream) client() *tcpnet.Client {
	cs.mu.Lock()
	cl, addr := cs.cl, cs.addr
	cs.mu.Unlock()
	if cl != nil {
		return cl
	}
	cl, err := tcpnet.Dial(addr)
	if err != nil {
		return nil
	}
	if cs.cfg.Obs != nil {
		cl.EnableTrace(cs.cfg.Obs, cs.clk, cs.cfg.Camera)
	}
	cs.mu.Lock()
	cs.cl = cl
	cs.dials++
	if cs.dials > 1 {
		cs.redials++
	}
	cs.mu.Unlock()
	return cl
}

// dropClient retires a connection that errored so the next frame redials.
func (cs *CamStream) dropClient(cl *tcpnet.Client) {
	cs.mu.Lock()
	if cs.cl == cl {
		cs.cl = nil
		cs.retired = append(cs.retired, cl)
	}
	cs.mu.Unlock()
}

// pace sleeps one capture interval (scaled, rate-adjusted), cut short by
// Stop.
func (cs *CamStream) pace() {
	interval := cs.cfg.Profile.FrameInterval()
	if mult := math.Float64frombits(cs.rate.Load()); mult > 0 {
		interval = time.Duration(float64(interval) / mult)
	}
	if ts := cs.cfg.TimeScale; ts > 0 && ts != 1 {
		interval = time.Duration(float64(interval) * ts)
	}
	if interval <= 0 {
		return
	}
	t := time.NewTimer(interval)
	defer t.Stop()
	select {
	case <-t.C:
	case <-cs.stop:
	}
}

func (cs *CamStream) await(wg *sync.WaitGroup, cl *tcpnet.Client, idx int, rec *FrameRecord) {
	defer wg.Done()
	r, err := cl.WaitFrame(idx, cs.cfg.FrameTimeout)
	if err != nil {
		// A dead connection also fails every later frame on it; retire
		// it so the next submit redials. A plain timeout retires it too —
		// spurious at worst, since redialing a healthy edge is cheap.
		cs.dropClient(cl)
		cs.cfg.Logf("camera %s: frame %d dropped: %v", cs.cfg.Camera, idx, err)
		return
	}
	cs.mu.Lock()
	rec.InitialLatency = r.InitialLatency
	rec.FinalLatency = r.FinalLatency
	rec.SentToCloud = r.SentToCloud
	rec.Shed = r.Shed
	rec.Corrections = r.Corrections
	rec.Apologies = len(r.Apologies)
	rec.InitialLabels = len(r.Initial)
	rec.FinalLabels = len(r.Final)
	rec.Dropped = false
	cs.answered++
	out := *rec
	cs.mu.Unlock()
	if cs.cfg.OnFrame != nil {
		cs.cfg.OnFrame(out)
	}
}

// Run plays the stream to completion (or Stop) and returns the report.
// Call once.
func (cs *CamStream) Run() ClientReport {
	gen := video.NewGenerator(cs.cfg.Profile, cs.cfg.Seed)
	var wg sync.WaitGroup
	for i := 0; i < cs.cfg.Frames; i++ {
		if cs.halted() {
			break
		}
		f := gen.Next()
		rec := &FrameRecord{Index: f.Index, Dropped: true}
		cs.mu.Lock()
		cs.recs = append(cs.recs, rec)
		cs.mu.Unlock()
		if cl := cs.client(); cl != nil {
			if err := cl.Submit(f, cs.cfg.Padding); err != nil {
				cs.dropClient(cl)
			} else {
				cs.mu.Lock()
				cs.submitted++
				cs.mu.Unlock()
				wg.Add(1)
				go cs.await(&wg, cl, f.Index, rec)
			}
		}
		cs.pace()
	}
	// Drain in-flight waits; a stopped stream gets a short grace so a
	// SIGTERM flush does not hang on a dark edge.
	grace := cs.cfg.FrameTimeout + time.Second
	if cs.halted() {
		grace = 3 * time.Second
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
	}
	cs.mu.Lock()
	for _, old := range cs.retired {
		old.Close()
	}
	cs.retired = nil
	if cs.cl != nil {
		cs.cl.Close()
		cs.cl = nil
	}
	cs.mu.Unlock()
	return cs.Report()
}

// Report snapshots the stream's outcome; safe to call live (the control
// channel's OpReport) or after Run.
func (cs *CamStream) Report() ClientReport {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	r := ClientReport{
		Camera:    cs.cfg.Camera,
		Video:     cs.cfg.Profile.Name,
		Edge:      cs.addr,
		Submitted: cs.submitted,
		Answered:  cs.answered,
		Redials:   cs.redials,
		Stopped:   cs.stopped,
	}
	for _, rec := range cs.recs {
		r.Frames = append(r.Frames, *rec)
		if rec.Dropped {
			r.Dropped++
		}
	}
	return r
}
