package cluster

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/obs"
	"croesus/internal/vclock"
)

// BatcherConfig configures the cloud-side validation batcher.
type BatcherConfig struct {
	Clock vclock.Clock
	// Model is the full cloud model shared by the fleet.
	Model detect.Model
	// CloudSpeed divides inference latency (1.0 = reference machine).
	CloudSpeed float64
	// Slots bounds concurrent batch inferences (parallel workers on the
	// cloud node). The default matches the single-edge pipeline's cloud
	// concurrency, so a fleet's shared validator is provisioned like the
	// paper's cloud machine.
	Slots int
	// MaxBatch flushes a batch as soon as it reaches this many frames.
	MaxBatch int
	// SLO is the flush deadline: a batch is dispatched no later than SLO
	// after its oldest request arrived, however empty it still is.
	SLO time.Duration
	// MaxPending is the admission-control cap on outstanding work:
	// queued requests plus frames in dispatched-but-unfinished batches.
	// When a request arrives at the cap, the lowest-margin queued (or
	// arriving) request is shed: it immediately returns ValidationShed
	// and the edge keeps its own answer — Croesus' degradation mode
	// instead of an unbounded backlog behind the cloud GPU.
	MaxPending int
	// Obs, when set, receives batch.queue/batch.run/batch.shed spans and
	// live queue-depth / inflight gauges plus a batches counter.
	Obs *obs.Obs
}

func (c BatcherConfig) defaults() BatcherConfig {
	if c.CloudSpeed == 0 {
		c.CloudSpeed = 1
	}
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.SLO == 0 {
		c.SLO = 60 * time.Millisecond
	}
	if c.MaxPending == 0 {
		c.MaxPending = 4 * c.MaxBatch
	}
	return c
}

// batchAlpha is the marginal cost of each additional frame in a batch as
// a fraction of its standalone inference latency; the slowest frame is
// charged in full. GPU batching amortizes weight loading and kernel
// launches, which is what makes a shared cloud validator economical at
// all.
const batchAlpha = 0.35

// BatcherStats summarizes a batcher's lifetime activity.
type BatcherStats struct {
	// Batches is the number of batches dispatched; Frames the number of
	// frames they carried.
	Batches int
	Frames  int
	// Shed counts requests dropped by admission control.
	Shed int
	// MaxBatch is the largest batch dispatched; MeanBatch the average.
	MaxBatch  int
	MeanBatch float64
	// MaxFlushWait is the longest any request waited between arriving
	// and its batch being dispatched; the batcher guarantees
	// MaxFlushWait ≤ SLO.
	MaxFlushWait time.Duration
	// SLOViolations counts flush waits beyond the SLO (always 0 unless
	// the implementation regresses; tests assert on it).
	SLOViolations int
}

// Batcher is an SLO-aware cloud validation batcher: it implements
// core.Validator by coalescing validate-interval frames from every edge
// in the fleet into batches, flushing on a size cap or an SLO deadline,
// whichever comes first, and shedding the lowest-confidence-margin
// requests under overload.
//
// Concurrency model: Validate is called on each frame's own clock
// goroutine. A request that fills the batch dispatches it inline; a
// request that starts a fresh queue arms a one-shot SLO timer goroutine
// that dispatches whatever has accumulated when it fires. Timer
// goroutines always terminate, so a simulation drains cleanly.
type Batcher struct {
	cfg   BatcherConfig
	slots *vclock.Semaphore

	// Pre-resolved observability handles (nil no-ops without cfg.Obs).
	gDepth   *obs.Gauge
	gInfl    *obs.Gauge
	mBatches *obs.Counter

	mu       sync.Mutex
	queue    []*pendingReq
	inflight int    // frames in dispatched, not-yet-completed batches
	epoch    uint64 // incremented at every dispatch; stale timers no-op
	stats    BatcherStats
}

type pendingReq struct {
	req  core.ValidationRequest
	at   time.Duration // enqueue time
	gate vclock.Gate
	res  core.ValidationResult
}

// NewBatcher returns a batcher on the given configuration. Clock and
// Model are required; everything else defaults. Negative knobs are
// rejected, as is MaxPending < MaxBatch — such a queue hits admission
// control before a batch can ever fill, so the batcher would only flush on
// the SLO timer and silently shed the rest.
func NewBatcher(cfg BatcherConfig) (*Batcher, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("cluster: BatcherConfig.Clock is required")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("cluster: BatcherConfig.Model is required")
	}
	if cfg.SLO < 0 {
		return nil, fmt.Errorf("cluster: BatcherConfig.SLO must be non-negative, got %v", cfg.SLO)
	}
	if cfg.MaxBatch < 0 || cfg.MaxPending < 0 || cfg.Slots < 0 {
		return nil, fmt.Errorf("cluster: BatcherConfig counts must be non-negative, got MaxBatch=%d MaxPending=%d Slots=%d",
			cfg.MaxBatch, cfg.MaxPending, cfg.Slots)
	}
	if cfg.CloudSpeed < 0 {
		return nil, fmt.Errorf("cluster: BatcherConfig.CloudSpeed must be non-negative, got %g", cfg.CloudSpeed)
	}
	cfg = cfg.defaults()
	if cfg.MaxPending < cfg.MaxBatch {
		return nil, fmt.Errorf("cluster: BatcherConfig.MaxPending (%d) below MaxBatch (%d): a batch could never fill",
			cfg.MaxPending, cfg.MaxBatch)
	}
	return &Batcher{
		cfg:      cfg,
		slots:    vclock.NewSemaphore(cfg.Clock, cfg.Slots),
		gDepth:   cfg.Obs.Gauge(obs.MetricBatcherDepth, ""),
		gInfl:    cfg.Obs.Gauge(obs.MetricBatcherInfl, ""),
		mBatches: cfg.Obs.Counter(obs.MetricBatches, ""),
	}, nil
}

// Config returns the (defaulted) configuration.
func (b *Batcher) Config() BatcherConfig { return b.cfg }

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Frames) / float64(s.Batches)
	}
	return s
}

// Validate implements core.Validator. It blocks in clock time until the
// request's batch completes, or returns immediately with ValidationShed
// if admission control drops it.
func (b *Batcher) Validate(req core.ValidationRequest) core.ValidationResult {
	clk := b.cfg.Clock
	pr := &pendingReq{req: req, at: clk.Now(), gate: clk.NewGate()}

	b.mu.Lock()
	// Admission control: over MaxPending outstanding frames, shed the
	// request with the lowest confidence margin — the frame whose edge
	// answer is most trustworthy loses its validation slot. Only queued
	// requests can be victims; frames already dispatched are past saving.
	// The victim's gate is fired under b.mu (Gate.Fire never blocks), so
	// the cap check and the eviction are atomic with the append below.
	if len(b.queue)+b.inflight >= b.cfg.MaxPending {
		victim := pr
		vi := -1
		for i, q := range b.queue {
			if q.req.Margin < victim.req.Margin {
				victim, vi = q, i
			}
		}
		b.stats.Shed++
		if victim == pr {
			b.mu.Unlock()
			b.cfg.Obs.SpanCtx(pr.req.Trace, obs.SpanBatchShed, "", pr.at, pr.at)
			return core.ValidationResult{Status: core.ValidationShed}
		}
		b.queue = append(b.queue[:vi], b.queue[vi+1:]...)
		victim.res = core.ValidationResult{Status: core.ValidationShed}
		b.cfg.Obs.SpanCtx(victim.req.Trace, obs.SpanBatchShed, "", victim.at, pr.at)
		victim.gate.Fire()
	}

	b.queue = append(b.queue, pr)
	b.gDepth.Set(int64(len(b.queue)))
	if len(b.queue) >= b.cfg.MaxBatch {
		batch := b.takeBatchLocked()
		b.mu.Unlock()
		b.runBatch(batch)
	} else {
		if len(b.queue) == 1 {
			// First request of a fresh queue: arm the SLO deadline.
			epoch := b.epoch
			b.mu.Unlock()
			clk.Go(func() {
				clk.Sleep(b.cfg.SLO)
				b.flushIfDue(epoch)
			})
		} else {
			b.mu.Unlock()
		}
	}

	pr.gate.Wait()
	return pr.res
}

// flushIfDue dispatches the pending queue if no dispatch has happened
// since the timer was armed.
func (b *Batcher) flushIfDue(epoch uint64) {
	b.mu.Lock()
	if b.epoch != epoch || len(b.queue) == 0 {
		b.mu.Unlock()
		return
	}
	batch := b.takeBatchLocked()
	b.mu.Unlock()
	b.runBatch(batch)
}

// takeBatchLocked removes the whole queue as one batch and accounts the
// flush waits against the SLO. Callers hold b.mu.
func (b *Batcher) takeBatchLocked() []*pendingReq {
	batch := b.queue
	b.queue = nil
	b.inflight += len(batch)
	b.epoch++
	b.stats.Batches++
	b.stats.Frames += len(batch)
	if len(batch) > b.stats.MaxBatch {
		b.stats.MaxBatch = len(batch)
	}
	b.gDepth.Set(0)
	b.gInfl.Set(int64(b.inflight))
	b.mBatches.Inc()
	now := b.cfg.Clock.Now()
	for _, pr := range batch {
		w := now - pr.at
		if w > b.stats.MaxFlushWait {
			b.stats.MaxFlushWait = w
		}
		if w > b.cfg.SLO {
			b.stats.SLOViolations++
		}
		b.cfg.Obs.SpanCtx(pr.req.Trace, obs.SpanBatchQueue, "", pr.at, now)
	}
	return batch
}

// runBatch executes one batch under the cloud compute slots and wakes
// every waiter with its labels.
func (b *Batcher) runBatch(batch []*pendingReq) {
	clk := b.cfg.Clock
	b.slots.Acquire()
	start := clk.Now()
	// Batched inference: the slowest frame is charged in full, every
	// additional frame at batchAlpha of its standalone latency.
	var maxLat, sumLat time.Duration
	results := make([][]detect.Detection, len(batch))
	for i, pr := range batch {
		r := b.cfg.Model.Detect(pr.req.Frame)
		results[i] = r.Detections
		if r.Latency > maxLat {
			maxLat = r.Latency
		}
		sumLat += r.Latency
	}
	lat := maxLat + time.Duration(float64(sumLat-maxLat)*batchAlpha)
	clk.Sleep(scaleDur(lat, b.cfg.CloudSpeed))
	b.slots.Release()
	end := clk.Now()
	b.cfg.Obs.Span(obs.SpanBatchRun, obs.Tags("frames", strconv.Itoa(len(batch))), start, end)
	b.mu.Lock()
	b.inflight -= len(batch)
	b.gInfl.Set(int64(b.inflight))
	b.mu.Unlock()
	for i, pr := range batch {
		pr.res = core.ValidationResult{
			Status: core.Validated,
			Cloud:  results[i],
			// Split the cloud side of this frame's life: everything up to
			// the compute slot (batch accumulation, SLO wait, slot wait) is
			// queueing; the batched inference itself is compute. The sum is
			// the whole enqueue→completion interval.
			CloudQueue:  start - pr.at,
			CloudDetect: end - start,
		}
		pr.gate.Fire()
	}
}

func scaleDur(d time.Duration, speed float64) time.Duration {
	if speed <= 0 {
		return d
	}
	return time.Duration(float64(d) / speed)
}
