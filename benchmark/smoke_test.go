package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// asBenchmark makes the test binary stand in for the benchmark binary: the
// parent re-execs os.Executable() for every repeat, which under `go test` is
// this binary, so a child started with the variable set runs main instead of
// the tests.
const asBenchmark = "CROESUS_BENCHMARK_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(asBenchmark) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs all four workloads, the micro-drivers and one traced repeat
// per workload at -short size. No timing is asserted — only the output
// checks, and that the metrics the program produces and the metrics
// BENCHMARK.json names are the same set.
func TestSmoke(t *testing.T) {
	t.Setenv(asBenchmark, "1")
	b, err := newBench(filepath.Join("out", "smoke"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.spec.Workloads) != 4 || len(b.spec.EndToEnd) != 9 || len(b.spec.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics", len(b.spec.Workloads), len(b.spec.EndToEnd), len(b.spec.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	named := map[string]bool{}
	for _, ms := range append(append([]metricSpec{}, b.spec.EndToEnd...), b.spec.PerLayer...) {
		if !name.MatchString(ms.Name) || !unit.MatchString(ms.Unit) || named[ms.Name] {
			t.Errorf("BENCHMARK.json: bad or repeated metric %q (unit %q)", ms.Name, ms.Unit)
		}
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("BENCHMARK.json: metric %q is better %q", ms.Name, ms.Better)
		}
		named[ms.Name] = true
	}

	reports, err := b.runAll(42, 1)
	if err != nil {
		t.Fatal(err)
	}
	executed := map[string]bool{}
	for _, r := range reports {
		for _, c := range r.Checks {
			t.Errorf("%s: check failed: %s", r.Workload, c)
		}
		if r.Failed != 0 || r.Attempted != r.Manifest.Frames {
			t.Errorf("%s: attempted %d of %d frames, %d failed", r.Workload, r.Attempted, r.Manifest.Frames, r.Failed)
		}
		for _, row := range r.EndToEnd {
			if row.Median == nil || *row.Median <= 0 || math.IsNaN(*row.Median) {
				t.Errorf("%s: end-to-end metric %s is missing or not positive", r.Workload, row.Name)
			}
		}
		cpu := 0.0
		for k, v := range r.layer {
			if !named[k] {
				t.Errorf("%s: the program reports %s, BENCHMARK.json does not name it", r.Workload, k)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", r.Workload, k, v)
			}
			executed[k] = true
			if strings.HasPrefix(k, "cpu.") && strings.HasSuffix(k, "_pct") {
				cpu += v
			}
		}
		// A -short repeat can be over before the profiler's first tick.
		if r.layer["cpu.samples"] > 0 && math.Abs(cpu-100) > 1 {
			t.Errorf("%s: cpu.*_pct sum to %.2f", r.Workload, cpu)
		}
		// Not a failure by itself: at HEAD the simulator is not quite
		// byte-deterministic at GOMAXPROCS 2 (README.md, "known leaks"). A
		// mismatch that moves a simulated metric is a failed check, above.
		if n := r.layer["sim.digest_mismatches"]; n != 0 {
			t.Logf("%s: %v repeats' simulated reports differ from the first repeat's", r.Workload, n)
		}
	}
	for _, ms := range b.spec.PerLayer {
		if !executed[ms.Name] {
			t.Errorf("BENCHMARK.json names %s, no workload produced it", ms.Name)
		}
	}
}
