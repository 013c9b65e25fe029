package workload

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestDetectionOpsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := AppendDetectionOps(nil, rng, Uniform{Prefix: "k", N: 100}, 6)
	if len(ops) != 6 {
		t.Fatalf("len = %d", len(ops))
	}
	inserts, reads := 0, 0
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			inserts++
		case OpRead:
			reads++
		}
		if !strings.HasPrefix(op.Key, "k:") {
			t.Errorf("key %q missing prefix", op.Key)
		}
	}
	if inserts != 3 || reads != 3 {
		t.Errorf("inserts=%d reads=%d, want 3/3 (YCSB-A half/half)", inserts, reads)
	}
}

func TestShardKeyRoundTrip(t *testing.T) {
	for _, shard := range []int{0, 3, 12, 107} {
		k := ShardKey(shard, "item", 42)
		got, ok := ShardOf(k)
		if !ok || got != shard {
			t.Errorf("ShardOf(%q) = %d %v, want %d", k, got, ok, shard)
		}
	}
	for _, k := range []string{"item:3", "s:item:3", "sx/item:1", "s", "", "s12"} {
		if _, ok := ShardOf(k); ok {
			t.Errorf("ShardOf(%q) parsed an unsharded key", k)
		}
	}
}

// keySink makes the key under test escape, as a drawn key does.
var keySink string

// ShardKey interns its strings: the text is exactly "s<shard>/<prefix>:<i>",
// inside and outside the interned range, and a repeated call allocates
// nothing.
func TestShardKeyInterned(t *testing.T) {
	for _, c := range []struct {
		shard, i int
		want     string
	}{
		{0, 0, "s0/item:0"},
		{12, 42, "s12/item:42"},
		{3, 1 << 20, "s3/item:1048576"},
	} {
		if k := ShardKey(c.shard, "item", c.i); k != c.want {
			t.Errorf("ShardKey(%d, item, %d) = %q, want %q", c.shard, c.i, k, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { keySink = ShardKey(12, "item", 42) }); n != 0 {
		t.Errorf("ShardKey allocates %v times after the first call, want 0", n)
	}
}

// Concurrent first draws of new shard prefixes and keys all see the same
// interned text (run under -race, this checks the caches' locking).
func TestShardKeyConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for shard := 0; shard < 32; shard++ {
				for i := 0; i < 1100; i += 50 {
					want := "s" + strconv.Itoa(shard) + "/conc:" + strconv.Itoa(i)
					if k := ShardKey(shard, "conc", i); k != want {
						t.Errorf("ShardKey(%d, conc, %d) = %q, want %q", shard, i, k, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestShardedUniformAffinity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := ShardedUniform{Prefix: "item", Home: 1, Shards: 4, N: 100, CrossProb: 0.3}
	const n = 5000
	home, cross := 0, 0
	for i := 0; i < n; i++ {
		shard, ok := ShardOf(s.Pick(rng))
		if !ok || shard < 0 || shard >= 4 {
			t.Fatalf("bad shard %d", shard)
		}
		if shard == 1 {
			home++
		} else {
			cross++
		}
	}
	frac := float64(cross) / n
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("cross-shard fraction = %.3f, want ≈ 0.3", frac)
	}
	// CrossProb 0 stays entirely home.
	s.CrossProb = 0
	for i := 0; i < 200; i++ {
		if shard, _ := ShardOf(s.Pick(rng)); shard != 1 {
			t.Fatalf("CrossProb 0 picked foreign shard %d", shard)
		}
	}
}

func TestZipfConcentration(t *testing.T) {
	z := NewZipf("k", 1000, 1.3)
	rng := rand.New(rand.NewSource(4))
	counts := map[string]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		counts[z.Pick(rng)]++
	}
	if counts["k:0"] < n/20 {
		t.Errorf("zipf head k:0 only %d/%d picks — not skewed", counts["k:0"], n)
	}
}

// The sampler is math/rand.Zipf's rejection-inversion with v = 1, drawing
// from the rng passed to Pick instead of an embedded one: fed the same
// stream it must produce the same indexes.
func TestZipfMatchesMathRand(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{1000, 1.3}, {2, 1.0001}, {50, 3}} {
		z := NewZipf("k", tc.n, tc.s)
		rng := rand.New(rand.NewSource(9))
		ref := rand.NewZipf(rand.New(rand.NewSource(9)), tc.s, 1, uint64(tc.n-1))
		for i := 0; i < 2000; i++ {
			if got, want := z.PickIndex(rng), int(ref.Uint64()); got != want {
				t.Fatalf("n=%d s=%g draw %d: index %d, math/rand gives %d", tc.n, tc.s, i, got, want)
			}
		}
	}
}

// Regression: out-of-contract parameters (s <= 1, n < 2) once made the
// first Pick panic; NewZipf clamps them.
func TestZipfClampsInvalidParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n int
		s float64
	}{
		{1, 0.5},    // both invalid
		{1, 1.3},    // n too small
		{1000, 1.0}, // s at the open bound
		{1000, -2},  // s nonsense
		{0, 0},
	} {
		z := NewZipf("k", tc.n, tc.s)
		for i := 0; i < 50; i++ {
			key := z.Pick(rng) // must not panic
			if key == "" {
				t.Fatalf("NewZipf(n=%d, s=%g): empty key", tc.n, tc.s)
			}
		}
	}
}

// ShardedZipf mirrors TestZipfConcentration on the sharded keyspace: the
// home shard's head key dominates, and the cross-shard fraction tracks
// CrossProb.
func TestShardedZipfConcentration(t *testing.T) {
	z := ShardedZipf{Home: 1, Shards: 3, CrossProb: 0.3, Zipf: NewZipf("k", 1000, 1.3)}
	rng := rand.New(rand.NewSource(4))
	counts := map[string]int{}
	cross := 0
	const n = 5000
	for i := 0; i < n; i++ {
		key := z.Pick(rng)
		counts[key]++
		shard, ok := ShardOf(key)
		if !ok {
			t.Fatalf("key %q has no shard tag", key)
		}
		if shard != 1 {
			cross++
		}
	}
	// The head key of the home shard alone must concentrate picks the way
	// the unsharded Zipf's head does, scaled by the home fraction.
	if head := counts[ShardKey(1, "k", 0)]; head < n/30 {
		t.Errorf("home head key only %d/%d picks — not skewed", head, n)
	}
	frac := float64(cross) / n
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("cross-shard fraction = %.3f, want ≈ 0.3", frac)
	}
	// Remote picks are skewed too: the two foreign heads lead the tail.
	if head := counts[ShardKey(0, "k", 0)] + counts[ShardKey(2, "k", 0)]; head < n/100 {
		t.Errorf("foreign head keys only %d/%d picks", head, n)
	}
}
