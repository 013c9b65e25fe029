package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// quantiles are the ranks every histogram test checks.
var quantiles = []float64{0.5, 0.9, 0.95, 0.99, 1}

// nearestRank is the exact nearest-rank q-quantile of sorted.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// sampleSets returns seeded random inputs: single samples, all zeros,
// zeros mixed with positives, log-uniform spans of 1µs–100s, and runs of
// one repeated value.
func sampleSets(rng *rand.Rand) [][]time.Duration {
	logUniform := func() time.Duration {
		return time.Duration(math.Exp(math.Log(1e3) + rng.Float64()*(math.Log(1e11)-math.Log(1e3))))
	}
	var sets [][]time.Duration
	for i := 0; i < 50; i++ {
		sets = append(sets, []time.Duration{logUniform()})
	}
	sets = append(sets, []time.Duration{0}, make([]time.Duration, 17))
	for i := 0; i < 100; i++ {
		set := make([]time.Duration, 1+rng.Intn(2000))
		zeros := rng.Float64() < 0.3
		for j := range set {
			if !zeros || rng.Intn(4) != 0 {
				set[j] = logUniform()
			}
		}
		sets = append(sets, set)
	}
	for i := 0; i < 10; i++ {
		v := logUniform()
		set := make([]time.Duration, 1+rng.Intn(100))
		for j := range set {
			set[j] = v
		}
		sets = append(sets, set)
	}
	return sets
}

func sketchOf(set []time.Duration) *Histogram {
	h := &Histogram{}
	for _, d := range set {
		h.Observe(d)
	}
	return h
}

// Every quantile lies within α of the exact nearest-rank sample (rounded
// up to whole nanoseconds, the unit a Duration carries) and inside
// [min, max].
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for si, set := range sampleSets(rng) {
		h := sketchOf(set)
		sorted := slices.Clone(set)
		slices.Sort(sorted)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		for _, q := range quantiles {
			got, want := h.Quantile(q), nearestRank(sorted, q)
			tol := time.Duration(math.Ceil(alpha * float64(want)))
			if got < want-tol || got > want+tol || got < lo || got > hi {
				t.Fatalf("set %d (n=%d): q%.2f = %d, want %d ± %d within [%d, %d]", si, len(set), q, got, want, tol, lo, hi)
			}
		}
		if n, _ := h.totals(); n != int64(len(set)) || h.Max() != hi {
			t.Fatalf("set %d: count/max = %d/%v, want %d/%v", si, n, h.Max(), len(set), hi)
		}
		if len(set) == 1 || lo == hi {
			for _, q := range quantiles {
				if got := h.Quantile(q); got != lo {
					t.Fatalf("set %d: one distinct value %v, q%.2f = %v", si, lo, q, got)
				}
			}
		}
	}
	if got := (&Histogram{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

// Merging the sketches of any split of the inputs, in any order, equals
// the sketch of the whole, bucket for bucket and so in every quantile.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for si, set := range sampleSets(rng) {
		whole := sketchOf(set)
		parts := make([][]time.Duration, 1+rng.Intn(5))
		for _, d := range set {
			k := rng.Intn(len(parts))
			parts[k] = append(parts[k], d)
		}
		merged := &Histogram{}
		for _, k := range rng.Perm(len(parts)) {
			merged.Merge(sketchOf(parts[k]))
		}
		if !reflect.DeepEqual(merged, whole) {
			t.Fatalf("set %d split %d ways: merged %+v, whole %+v", si, len(parts), merged, whole)
		}
		for _, q := range quantiles {
			if merged.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("set %d: merged q%.2f = %v, whole %v", si, q, merged.Quantile(q), whole.Quantile(q))
			}
		}
	}

	// Per-section series stay distinct: a registry resolves one histogram
	// per section tag, and merging the same section across two edges'
	// registries folds counts without bleeding into a neighboring section.
	west, east := NewRegistry(), NewRegistry()
	for _, r := range []*Registry{west, east} {
		r.Histogram(MetricSectionLatency, Tags("edge", "e0", "section", "1")).Observe(8 * time.Millisecond)
		r.Histogram(MetricSectionLatency, Tags("edge", "e0", "section", "2")).Observe(80 * time.Millisecond)
	}
	for _, sec := range []string{"1", "2"} {
		tag := Tags("edge", "e0", "section", sec)
		west.Histogram(MetricSectionLatency, tag).Merge(east.Histogram(MetricSectionLatency, tag))
		if n, _ := west.Histogram(MetricSectionLatency, tag).totals(); n != 2 {
			t.Fatalf("section %s merged count = %d, want 2 (one per fleet half)", sec, n)
		}
	}
}

// A duration equal to a ladder `le` counts under that bound, and one a
// nanosecond above it does not (Prometheus "le" semantics); the sum and
// count are exact.
func TestHistogramBucketBoundaries(t *testing.T) {
	for j, rung := range promLadder {
		edge := bucketEdge(rung)
		h := &Histogram{}
		h.Observe(edge)
		h.Observe(edge + 1)
		text := strings.Join(h.promLines("x", ""), "\n")
		le := fmt.Sprintf(`x_bucket{le="%s"} 1`, strings.TrimRight(fmt.Sprintf("%.9f", edge.Seconds()), "0"))
		if !strings.Contains(text, le) {
			t.Fatalf("rung %d (%v): want %s in\n%s", j, edge, le, text)
		}
		if n, sum := h.totals(); n != 2 || sum != 2*edge+1 {
			t.Fatalf("rung %d: count/sum = %d/%v", j, n, sum)
		}
	}
	if promLadder[0] != bucketOf(time.Millisecond) || bucketEdge(promLadder[0]) < time.Millisecond {
		t.Fatalf("ladder starts at %v, want the first edge at or above 1ms", bucketEdge(promLadder[0]))
	}
}

// Within the range already seen, Observe does not allocate.
func TestHistogramObserveAllocs(t *testing.T) {
	h := &Histogram{}
	h.Observe(time.Millisecond)
	h.Observe(10 * time.Second)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(42 * time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %.1f times per call", n)
	}
}

// Wall-clock frame goroutines observe into registry histograms while a
// scrape renders them and a report merges them; run under -race.
func TestHistogramConcurrentObserveScrapeMerge(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(MetricFinalLatency, Tags("edge", "e0"))
	const writers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Each writer widens the range, so Observe grows the
				// bucket array while others read it.
				h.Observe(time.Duration(w*each+i+1) * time.Microsecond)
			}
		}(w)
	}
	into, extra := &Histogram{}, sketchOf([]time.Duration{0, time.Second})
	const merges = 50
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if !strings.Contains(r.PrometheusText(), "croesus_final_latency_seconds_count") {
				t.Error("scrape lost the histogram")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < merges; i++ {
			into.Merge(h)
			h.Merge(extra)
		}
	}()
	wg.Wait()
	if n, _ := h.totals(); n != writers*each+2*merges || h.Max() != time.Second || h.Quantile(0.001) != 0 {
		t.Fatalf("count/max/min = %d/%v/%v after %d observations and %d merges", n, h.Max(), h.Quantile(0.001), writers*each, merges)
	}
}
