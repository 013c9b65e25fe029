package obs

import (
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
)

// alpha is the Histogram's relative accuracy: every quantile it reports
// lies within alpha of the exact nearest-rank sample.
const alpha = 0.01

// lnGamma is ln γ for γ = (1+α)/(1−α), the ratio of consecutive bucket
// edges. Bucket i holds the durations in (γ^(i−1), γ^i] nanoseconds, and
// its representative (1−α)·γ^i lies within α of every one of them.
var lnGamma = math.Log((1 + alpha) / (1 - alpha))

func bucketOf(d time.Duration) int {
	return int(math.Ceil(math.Log(float64(d)) / lnGamma))
}

// promLadder holds the bucket indexes whose upper edges are the `le`
// bounds of the Prometheus exposition: every 46th edge (×2.51) from the
// first at or above 1 ms, up to 9.95 s. Each `le` is a bucket edge, so its
// cumulative count is exact.
var promLadder = func() (l [11]int) {
	for j := range l {
		l[j] = bucketOf(time.Millisecond) + 46*j
	}
	return l
}()

// bucketEdge is the largest duration bucket i holds: ⌊γ^i⌋ nanoseconds.
func bucketEdge(i int) time.Duration {
	return time.Duration(math.Floor(math.Exp(float64(i) * lnGamma)))
}

// Histogram is the one latency aggregator of the fleet, a log-bucketed
// sketch after DDSketch (Masson, Rim & Lee, VLDB 2019). Positive durations
// land in log-spaced buckets, zero and negative ones in an exact zero
// bucket, and count, sum, min and max are kept exactly. Counts are
// integers, so Merge is exact, commutative and associative, and no
// quantile depends on the order of observation. Memory grows with the
// range of durations observed, not with their number.
//
// The zero value is an empty histogram. Every method is safe from any
// goroutine, and a nil Histogram is a no-op.
type Histogram struct {
	mu       sync.Mutex
	counts   []int64 // counts[i] is bucket base+i
	base     int
	zero     int64 // durations ≤ 0
	n        int64
	sum      time.Duration
	min, max time.Duration
}

// add counts c observations in bucket i, growing counts to cover it.
// Callers hold h.mu, as for widen.
func (h *Histogram) add(i int, c int64) {
	if len(h.counts) == 0 {
		h.base = i
	}
	if i < h.base || i >= h.base+len(h.counts) {
		base, end := min(h.base, i), max(h.base+len(h.counts), i+1)
		grown := make([]int64, end-base)
		copy(grown[h.base-base:], h.counts)
		h.counts, h.base = grown, base
	}
	h.counts[i-h.base] += c
}

// widen extends [min, max] to cover [lo, hi]; call it before counting.
func (h *Histogram) widen(lo, hi time.Duration) {
	if h.n == 0 || lo < h.min {
		h.min = lo
	}
	if h.n == 0 || hi > h.max {
		h.max = hi
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.widen(d, d)
	h.n++
	h.sum += d
	if d <= 0 {
		h.zero++
		return
	}
	h.add(bucketOf(d), 1)
}

// Merge folds other's observations into h: h becomes the sketch of both
// inputs together, bucket for bucket.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	other.mu.Lock()
	counts, base, zero, n, sum, lo, hi := slices.Clone(other.counts), other.base, other.zero, other.n, other.sum, other.min, other.max
	other.mu.Unlock()
	if n == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.widen(lo, hi)
	h.n += n
	h.sum += sum
	h.zero += zero
	for i, c := range counts {
		if c != 0 {
			h.add(base+i, c)
		}
	}
}

// totals reports the number and the sum of all observations.
func (h *Histogram) totals() (n int64, sum time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n, h.sum
}

// Max reports the largest observation, exactly (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 < q ≤ 1) by nearest rank: the
// representative of the bucket that holds the ⌈q·n⌉-th smallest
// observation, clamped to [min, max]. It lies within α of that
// observation, and is exact when all observations are equal (a single
// sample, or a cell of zeros). 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(h.n))), 1), h.n)
	var v time.Duration
	if seen := h.zero; seen < rank {
		for i, c := range h.counts {
			if seen += c; seen >= rank {
				v = time.Duration(math.Round((1 - alpha) * math.Exp(float64(h.base+i)*lnGamma)))
				break
			}
		}
	}
	return min(max(v, h.min), h.max)
}

// promLines returns the Prometheus histogram lines of h, named name with
// the canonical tags: one cumulative `_bucket` per promLadder rung, then
// +Inf, `_sum` and `_count`, all read under one lock.
func (h *Histogram) promLines(name, tags string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	lines := make([]string, 0, len(promLadder)+3)
	cum, i := h.zero, 0
	for _, rung := range promLadder {
		for ; i < len(h.counts) && h.base+i <= rung; i++ {
			cum += h.counts[i]
		}
		le := strconv.FormatFloat(float64(bucketEdge(rung))/1e9, 'g', -1, 64)
		lines = append(lines, name+"_bucket"+promLabels(tags, le)+" "+strconv.FormatInt(cum, 10))
	}
	return append(lines,
		name+"_bucket"+promLabels(tags, "+Inf")+" "+strconv.FormatInt(h.n, 10),
		name+"_sum"+promLabels(tags, "")+" "+strconv.FormatFloat(h.sum.Seconds(), 'g', -1, 64),
		name+"_count"+promLabels(tags, "")+" "+strconv.FormatInt(h.n, 10))
}
