package cluster

import (
	"sync"
	"testing"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// fixedModel returns one detection per frame with a fixed latency —
// enough to observe batching arithmetic precisely.
type fixedModel struct {
	latency time.Duration
}

func (m fixedModel) Name() string { return "fixed" }

func (m fixedModel) Detect(f *video.Frame) detect.Result {
	return detect.Result{
		Detections: []detect.Detection{{Label: "obj", Confidence: 0.9, Box: video.Rect{X: 0.1, Y: 0.1, W: 0.2, H: 0.2}}},
		Latency:    m.latency,
	}
}

func frameAt(idx int) *video.Frame {
	return &video.Frame{Index: idx, SizeBytes: 1 << 16}
}

// submit runs n Validate calls as clock participants, returning results
// in submission order.
func submit(clk *vclock.Sim, b *Batcher, reqs []core.ValidationRequest, gap time.Duration) []core.ValidationResult {
	results := make([]core.ValidationResult, len(reqs))
	var mu sync.Mutex
	for i, req := range reqs {
		i, req := i, req
		clk.Go(func() {
			clk.Sleep(time.Duration(i) * gap)
			res := b.Validate(req)
			mu.Lock()
			results[i] = res
			mu.Unlock()
		})
	}
	clk.Wait()
	return results
}

// TestSizeFlush: MaxBatch simultaneous arrivals dispatch immediately as
// one batch, without waiting for the SLO.
func TestSizeFlush(t *testing.T) {
	clk := vclock.NewSim()
	b := mustBatcher(t, BatcherConfig{Clock: clk, Model: fixedModel{latency: 10 * time.Millisecond}, MaxBatch: 4, SLO: time.Hour})
	reqs := make([]core.ValidationRequest, 4)
	for i := range reqs {
		reqs[i] = core.ValidationRequest{Frame: frameAt(i), Margin: 0.5}
	}
	results := submit(clk, b, reqs, 0)
	for i, r := range results {
		if r.Status != core.Validated {
			t.Fatalf("request %d: status %v", i, r.Status)
		}
		if len(r.Cloud) != 1 {
			t.Fatalf("request %d: %d labels", i, len(r.Cloud))
		}
	}
	st := b.Stats()
	if st.Batches != 1 || st.Frames != 4 || st.MaxBatch != 4 {
		t.Fatalf("stats = %+v, want one batch of 4", st)
	}
	// With an hour-long SLO, dispatch must have been size-triggered:
	// nobody waited for the deadline, and each request completed in the
	// amortized batch time (10ms + 0.35·30ms with batchAlpha).
	if st.MaxFlushWait != 0 {
		t.Fatalf("simultaneous arrivals waited %v for dispatch", st.MaxFlushWait)
	}
	for i, r := range results {
		if want := 20500 * time.Microsecond; r.CloudDetect != want {
			t.Fatalf("request %d: CloudDetect = %v, want amortized %v", i, r.CloudDetect, want)
		}
	}
}

// TestDeadlineFlush: a lone request dispatches at exactly the SLO.
func TestDeadlineFlush(t *testing.T) {
	clk := vclock.NewSim()
	slo := 50 * time.Millisecond
	b := mustBatcher(t, BatcherConfig{Clock: clk, Model: fixedModel{latency: 10 * time.Millisecond}, MaxBatch: 8, SLO: slo})
	results := submit(clk, b, []core.ValidationRequest{{Frame: frameAt(0), Margin: 0.5}}, 0)
	if results[0].Status != core.Validated {
		t.Fatalf("status %v", results[0].Status)
	}
	st := b.Stats()
	if st.MaxFlushWait != slo {
		t.Fatalf("lone request dispatched after %v, want the SLO deadline %v", st.MaxFlushWait, slo)
	}
	if st.SLOViolations != 0 {
		t.Fatalf("%d SLO violations", st.SLOViolations)
	}
	// The SLO wait lands in CloudQueue; CloudDetect is pure inference.
	if got, want := results[0].CloudQueue, slo; got != want {
		t.Fatalf("CloudQueue = %v, want the SLO wait %v", got, want)
	}
	if got, want := results[0].CloudDetect, 10*time.Millisecond; got != want {
		t.Fatalf("CloudDetect = %v, want %v", got, want)
	}
}

// TestStaggeredUnderSLO: arrivals trickling in under the deadline ride
// the first request's timer; every wait stays within the SLO.
func TestStaggeredUnderSLO(t *testing.T) {
	clk := vclock.NewSim()
	slo := 100 * time.Millisecond
	b := mustBatcher(t, BatcherConfig{Clock: clk, Model: fixedModel{latency: 5 * time.Millisecond}, MaxBatch: 100, SLO: slo})
	reqs := make([]core.ValidationRequest, 5)
	for i := range reqs {
		reqs[i] = core.ValidationRequest{Frame: frameAt(i), Margin: 0.5}
	}
	submit(clk, b, reqs, 20*time.Millisecond) // arrivals at 0,20,...,80ms
	st := b.Stats()
	if st.Batches != 1 || st.Frames != 5 {
		t.Fatalf("stats = %+v, want one batch of 5", st)
	}
	if st.MaxFlushWait != slo {
		t.Fatalf("oldest request waited %v, want exactly the SLO %v", st.MaxFlushWait, slo)
	}
	if st.SLOViolations != 0 {
		t.Fatalf("%d SLO violations", st.SLOViolations)
	}
}

// TestShedLowestMargin: over the pending cap, the lowest-margin request
// is the one dropped — whether it is queued or arriving. The first three
// arrivals fill one in-flight batch (the slow model keeps them in flight);
// the cap is then reached with one request queued and one arriving.
func TestShedLowestMargin(t *testing.T) {
	shedCfg := func(clk *vclock.Sim) BatcherConfig {
		return BatcherConfig{Clock: clk, Model: fixedModel{latency: 500 * time.Millisecond}, MaxBatch: 3, SLO: time.Second, MaxPending: 4}
	}

	// Margins 0.9, 0.8, 0.7 dispatch as a batch; 0.1 queues; 0.5 arrives
	// over the cap and the queued 0.1 must be the victim.
	clk := vclock.NewSim()
	b := mustBatcher(t, shedCfg(clk))
	reqs := []core.ValidationRequest{
		{Frame: frameAt(0), Margin: 0.9},
		{Frame: frameAt(1), Margin: 0.8},
		{Frame: frameAt(2), Margin: 0.7},
		{Frame: frameAt(3), Margin: 0.1},
		{Frame: frameAt(4), Margin: 0.5},
	}
	results := submit(clk, b, reqs, time.Millisecond)
	if results[3].Status != core.ValidationShed {
		t.Fatalf("queued low-margin request not shed: %v", results[3].Status)
	}
	for i, r := range results {
		if i != 3 && r.Status != core.Validated {
			t.Fatalf("request %d did not validate: %v", i, r.Status)
		}
	}
	if st := b.Stats(); st.Shed != 1 {
		t.Fatalf("shed count %d, want 1", st.Shed)
	}

	// Now an arriving request that is itself the weakest: 0.5 queued, 0.1
	// arriving → the arrival is shed.
	clk2 := vclock.NewSim()
	b2 := mustBatcher(t, shedCfg(clk2))
	reqs2 := []core.ValidationRequest{
		{Frame: frameAt(0), Margin: 0.9},
		{Frame: frameAt(1), Margin: 0.8},
		{Frame: frameAt(2), Margin: 0.7},
		{Frame: frameAt(3), Margin: 0.5},
		{Frame: frameAt(4), Margin: 0.1},
	}
	results2 := submit(clk2, b2, reqs2, time.Millisecond)
	if results2[4].Status != core.ValidationShed {
		t.Fatalf("weak arrival not shed: %v", results2[4].Status)
	}
	for i, r := range results2 {
		if i != 4 && r.Status != core.Validated {
			t.Fatalf("request %d did not validate: %v", i, r.Status)
		}
	}
}

// TestBatchAmortization: a batch of equal-latency frames costs
// max + α·(sum−max), not the serial sum.
func TestBatchAmortization(t *testing.T) {
	clk := vclock.NewSim()
	lat := 20 * time.Millisecond
	b := mustBatcher(t, BatcherConfig{Clock: clk, Model: fixedModel{latency: lat}, MaxBatch: 4, SLO: time.Hour})
	reqs := make([]core.ValidationRequest, 4)
	for i := range reqs {
		reqs[i] = core.ValidationRequest{Frame: frameAt(i), Margin: 0.5}
	}
	results := submit(clk, b, reqs, 0)
	// 20ms + 0.35 · 60ms = 41ms for the whole batch, observed by every
	// member since all arrived at t=0.
	for i, r := range results {
		if want := 41 * time.Millisecond; r.CloudDetect != want {
			t.Fatalf("request %d finished after %v, want %v", i, r.CloudDetect, want)
		}
	}
}

// TestValidationMargin pins down the shedding priority: deepest-in-band
// detection wins, out-of-band detections are ignored.
func TestValidationMargin(t *testing.T) {
	dets := func(confs ...float64) []detect.Detection {
		out := make([]detect.Detection, len(confs))
		for i, c := range confs {
			out[i] = detect.Detection{Confidence: c}
		}
		return out
	}
	cases := []struct {
		confs []float64
		want  float64
	}{
		{[]float64{0.50}, 1.0},       // band center of [0.4, 0.6]
		{[]float64{0.40}, 0.0},       // on the lower edge
		{[]float64{0.42, 0.58}, 0.2}, // symmetric shallow pair
		{[]float64{0.10, 0.90}, 0.0}, // nothing in band
		{[]float64{0.45, 0.99}, 0.5}, // out-of-band ignored
	}
	for _, tc := range cases {
		got := core.ValidationMargin(dets(tc.confs...), 0.40, 0.60)
		if diff := got - tc.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("margin(%v) = %v, want %v", tc.confs, got, tc.want)
		}
	}
}

// mustBatcher fails the test on config errors.
func mustBatcher(t *testing.T, cfg BatcherConfig) *Batcher {
	t.Helper()
	b, err := NewBatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestNewBatcherValidation: missing Clock or Model, negative knobs, and a
// pending cap no batch could fill under are errors, not panics or silent
// misbehavior.
func TestNewBatcherValidation(t *testing.T) {
	if _, err := NewBatcher(BatcherConfig{Model: fixedModel{}}); err == nil {
		t.Error("missing Clock accepted")
	}
	if _, err := NewBatcher(BatcherConfig{Clock: vclock.NewSim()}); err == nil {
		t.Error("missing Model accepted")
	}
	clk := vclock.NewSim()
	base := BatcherConfig{Clock: clk, Model: fixedModel{}}
	bad := []struct {
		name string
		mut  func(*BatcherConfig)
	}{
		{"negative SLO", func(c *BatcherConfig) { c.SLO = -time.Millisecond }},
		{"negative MaxBatch", func(c *BatcherConfig) { c.MaxBatch = -1 }},
		{"negative MaxPending", func(c *BatcherConfig) { c.MaxPending = -1 }},
		{"negative Slots", func(c *BatcherConfig) { c.Slots = -1 }},
		{"negative CloudSpeed", func(c *BatcherConfig) { c.CloudSpeed = -1 }},
		{"pending below batch", func(c *BatcherConfig) { c.MaxBatch = 8; c.MaxPending = 4 }},
	}
	for _, tc := range bad {
		cfg := base
		tc.mut(&cfg)
		if _, err := NewBatcher(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The boundary case is fine: a pending cap equal to the batch cap.
	if _, err := NewBatcher(BatcherConfig{Clock: clk, Model: fixedModel{}, MaxBatch: 4, MaxPending: 4}); err != nil {
		t.Errorf("MaxPending == MaxBatch rejected: %v", err)
	}
}
