package main

// The parent side: generate a workload's inputs from the seed, run each
// repeat in a fresh child process, check and aggregate what the children
// report, and print it — as the one-line JSON the benchmark contract asks
// for, or as the tables and results file of the full suite.
//
// Why a process per repeat: a durable sharded scenario repeated inside one
// process changes its simulated report from the third repeat on, while
// fresh processes agree byte for byte (see README.md, "Known leak"). A
// single run never sees that warmth, so the benchmark must not either.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the one place metric names, units and bounds are
// written down. The program reads it rather than repeating it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type bench struct {
	out   string
	exe   string
	spec  spec
	short bool
	sz    sizes
	procs int
}

// childTimeout bounds one repeat; the slowest full-size repeat takes a few
// seconds.
const childTimeout = 150 * time.Second

// repeats is how many fresh-process repeats stand behind every median of
// the suite and the self-test. Not an option: two people running the same
// instrument must get medians of the same thing.
const repeats = 5

// settleTime is the idle gap before the first workload of the suite and of
// the self-test. Both reach it straight from sustained CPU load — the compile
// `go run` does, the micro-drivers — and for 12–15 s after such load this
// sandbox runs the same code on a third more CPU time (README.md,
// "Steadiness"). The first workload is the latency-sensitive tcp_paced, which
// would be charged with it.
const settleTime = 15 * time.Second

func (b *bench) settle() {
	if !b.short {
		fmt.Fprintf(os.Stderr, "idling %v so that the load before the first workload is not measured with it\n", settleTime)
		time.Sleep(settleTime)
	}
}

func newBench(out string, short bool) (*bench, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
	b := &bench{out: out, short: short, sz: fullSizes, procs: cpuCount()}
	if short {
		b.sz = shortSizes
	}
	if b.out == "" {
		b.out = filepath.Join(dir, "benchmark", "out")
	}
	if b.out, err = filepath.Abs(b.out); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &b.spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if b.exe, err = os.Executable(); err != nil {
		return nil, err
	}
	return b, nil
}

// cpuCount is the CPUs the process may use: the scheduler affinity, capped
// by the cgroup's CPU quota, which Go before 1.25 does not look at.
func cpuCount() int {
	n := runtime.NumCPU()
	if raw, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		f := strings.Fields(string(raw))
		if len(f) == 2 && f[0] != "max" {
			quota, err1 := strconv.ParseFloat(f[0], 64)
			period, err2 := strconv.ParseFloat(f[1], 64)
			if err1 == nil && err2 == nil && period > 0 {
				if q := int(math.Ceil(quota / period)); q >= 1 && q < n {
					n = q
				}
			}
		}
	}
	return n
}

// spawn runs the benchmark binary as a child and decodes the JSON object on
// the last line of its standard output into v.
func (b *bench) spawn(v any, tmp string, args ...string) (*syscall.Rusage, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, append(args, "-procs", strconv.Itoa(b.procs))...)
	// Durable fleets create their WAL directory under TMPDIR; keep it
	// inside the benchmark's own output directory.
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], v); err != nil {
		return nil, fmt.Errorf("child %s: bad result: %w", strings.Join(args, " "), err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

// repeat runs one repeat of a generated workload in a fresh process.
func (b *bench) repeat(dir string, trace bool) (*result, error) {
	r := &result{}
	args := []string{"-child", dir}
	if trace {
		args = append(args, "-trace", "1")
	}
	ru, err := b.spawn(r, filepath.Join(dir, "tmp"), args...)
	if err != nil {
		return nil, err
	}
	if ru != nil {
		r.E2E["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // ru_maxrss is KiB on Linux
	}
	return r, nil
}

// measurement is one workload measured on one seed: the untraced repeats.
type measurement struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Manifest   *manifest `json:"-"`
	Repeats    []*result `json:"-"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Mismatches int       `json:"digest_mismatches"`
	Checks     []string  `json:"failed_checks,omitempty"`
}

func (m *measurement) correct() bool { return len(m.Checks) == 0 }

// values lists one metric over the repeats.
func (m *measurement) values(name string, layer bool) []float64 {
	var out []float64
	for _, r := range m.Repeats {
		src := r.E2E
		if layer {
			src = r.Layer
		}
		if v, ok := src[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func (b *bench) dir(workload string) string { return filepath.Join(b.out, workload) }

// measure generates the workload's inputs and runs untraced repeats: exactly
// count of them, or, with seconds > 0, as many as start within that time.
func (b *bench) measure(workload string, seed int64, seconds, count int) (*measurement, error) {
	start := time.Now()
	dir := b.dir(workload)
	man, err := generate(workload, seed, b.sz, dir)
	if err != nil {
		return nil, err
	}
	m := &measurement{Workload: workload, Seed: seed, Manifest: man}
	for n := 0; ; n++ {
		if seconds > 0 {
			// Stop when the next repeat would not finish inside the window.
			elapsed := time.Since(start)
			if n > 0 && elapsed+elapsed/time.Duration(n) > time.Duration(seconds)*time.Second {
				break
			}
		} else if n >= count {
			break
		}
		r, err := b.repeat(dir, false)
		if err != nil {
			return nil, err
		}
		m.add(r)
	}
	return m, nil
}

// simulated are the end-to-end metrics that, on a virtual clock, are
// functions of the model and the seed alone.
var simulated = []string{"initial_p50_ms", "initial_p90_ms", "final_p50_ms", "final_p90_ms", "f1_final"}

// verify compares a repeat's simulated report with the first repeat's. Same
// seed should mean the same bytes, and every difference is counted in
// sim.digest_mismatches. It fails the repeat — all its frames — only when a
// simulated end-to-end metric moved by more than 0.1 %: at HEAD the simulator
// is not byte-deterministic at GOMAXPROCS 2 (about 1 sim_fleet repeat in 25
// on some seeds reports one camera's p99 a millisecond off, see README.md,
// "Known leaks"), and a benchmark that fails at random measures nothing.
func (m *measurement) verify(r *result) {
	if len(m.Repeats) == 0 || r.Digest == m.Repeats[0].Digest {
		return
	}
	m.Mismatches++
	first := m.Repeats[0]
	for _, k := range simulated {
		if a, b := first.E2E[k], r.E2E[k]; math.Abs(a-b) > 1e-3*math.Abs(a) {
			r.Failed = r.Frames
			r.E2E["completed_share"] = 0
			r.failf("simulated %s is %v, the first repeat of the same seed had %v", k, b, a)
		}
	}
	fmt.Fprintf(os.Stderr, "note: %s: a repeat's simulated report differs from the first repeat's (digest %s, first %s); compare report.txt of two repeats\n",
		m.Workload, r.Digest, first.Digest)
}

// add folds one untraced repeat in.
func (m *measurement) add(r *result) {
	m.verify(r)
	m.Repeats = append(m.Repeats, r)
	m.Attempted += r.Frames
	m.Failed += r.Failed
	for _, c := range r.Checks {
		m.Checks = append(m.Checks, fmt.Sprintf("repeat %d: %s", len(m.Repeats), c))
	}
}

// layers measures the per-layer metrics of one workload: counts from the
// untraced repeats, spans and CPU shares from one extra traced repeat, and
// the micro-driver rows (the same for every workload).
func (b *bench) layers(m *measurement, micro map[string]float64) (map[string]float64, error) {
	traced, err := b.repeat(b.dir(m.Workload), true)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range micro {
		out[k] = v
	}
	for k, v := range traced.Layer {
		if strings.HasPrefix(k, "span.") || strings.HasPrefix(k, "cpu.") || strings.HasPrefix(k, "obs.") {
			out[k] = v
		}
	}
	for _, ms := range b.spec.PerLayer {
		if vals := m.values(ms.Name, true); len(vals) > 0 {
			out[ms.Name] = median(vals)
		}
	}
	untraced := median(m.values("frames_per_s", false))
	out["obs.trace_overhead_pct"] = 100 * (untraced - traced.E2E["frames_per_s"]) / untraced
	// The traced repeat is checked like any other (tracing must not
	// perturb the simulation) but its numbers stay out of the end-to-end
	// metrics.
	m.verify(traced)
	for _, c := range traced.Checks {
		m.Checks = append(m.Checks, "traced repeat: "+c)
	}
	if m.Manifest.Clock == "virtual" {
		out["sim.digest_mismatches"] = float64(m.Mismatches)
	}
	return out, nil
}

func (b *bench) micro() (map[string]float64, error) {
	out := map[string]float64{}
	args := []string{"-micro"}
	if b.short {
		args = append(args, "-short")
	}
	_, err := b.spawn(&out, filepath.Join(b.out, "micro"), args...)
	return out, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract is the one-workload mode the benchmark driver calls: one JSON
// object on the last line of standard output.
func (b *bench) contract(workload string, seed int64, seconds int, trace bool) error {
	metrics := map[string]metricValue{}
	var m *measurement
	var err error
	if trace {
		mic, err := b.micro()
		if err != nil {
			return err
		}
		if m, err = b.measure(workload, seed, 0, 1); err != nil {
			return err
		}
		layer, err := b.layers(m, mic)
		if err != nil {
			return err
		}
		for _, ms := range b.spec.PerLayer {
			// A layer the workload does not execute reads 0 here (the
			// contract wants a number); the suite prints it as null.
			metrics[ms.Name] = metricValue{layer[ms.Name], ms.Unit}
		}
	} else {
		if m, err = b.measure(workload, seed, seconds, repeats); err != nil {
			return err
		}
		for _, ms := range b.spec.EndToEnd {
			vals := m.values(ms.Name, false)
			if len(vals) != len(m.Repeats) {
				return fmt.Errorf("%s: metric %s missing from a repeat", workload, ms.Name)
			}
			metrics[ms.Name] = metricValue{median(vals), ms.Unit}
		}
	}
	for _, c := range m.Checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct":   m.correct(),
		"attempted": m.Attempted,
		"failed":    m.Failed,
		"metrics":   metrics,
	})
}

// row is one metric of one workload in the suite's output.
type row struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Median  *float64  `json:"median"` // null: the workload does not execute the layer
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Samples int       `json:"samples,omitempty"` // frames behind a percentile, over all repeats
}

type workloadReport struct {
	*measurement
	Clock    string `json:"clock"`
	Loop     string `json:"loop"`
	EndToEnd []row  `json:"end_to_end"`
	PerLayer []row  `json:"per_layer,omitempty"`
	// layer is everything the per-layer sources produced, named in
	// BENCHMARK.json or not (the smoke test compares the two).
	layer map[string]float64
}

func (b *bench) endToEnd(m *measurement) []row {
	var rows []row
	for _, ms := range b.spec.EndToEnd {
		vals := m.values(ms.Name, false)
		med := median(vals)
		rw := row{Name: ms.Name, Unit: ms.Unit, Median: &med, Min: slices.Min(vals), Max: slices.Max(vals), Values: vals}
		if strings.HasSuffix(ms.Name, "_ms") { // the latency percentiles
			rw.Samples = m.Attempted
		}
		rows = append(rows, rw)
	}
	return rows
}

func printRows(title string, rows []row) {
	fmt.Printf("  %-34s %-7s %14s %14s %14s\n", title, "unit", "median", "min", "max")
	for _, r := range rows {
		if r.Median == nil {
			fmt.Printf("  %-34s %-7s %14s\n", r.Name, r.Unit, "null")
			continue
		}
		line := fmt.Sprintf("  %-34s %-7s %14.6g", r.Name, r.Unit, *r.Median)
		if len(r.Values) > 1 {
			line += fmt.Sprintf(" %14.6g %14.6g", r.Min, r.Max)
		}
		if r.Samples > 0 {
			line += fmt.Sprintf("   (%d samples)", r.Samples)
		}
		fmt.Println(line)
	}
}

// runWorkload measures one workload end to end and prints it; with micro
// set it adds the per-layer metrics (one more, traced, repeat).
func (b *bench) runWorkload(name, why string, seed int64, count int, micro map[string]float64) (*workloadReport, error) {
	m, err := b.measure(name, seed, 0, count)
	if err != nil {
		return nil, err
	}
	wr := &workloadReport{measurement: m, Clock: m.Manifest.Clock, Loop: m.Manifest.Loop}
	if micro != nil {
		if wr.layer, err = b.layers(m, micro); err != nil {
			return nil, err
		}
		for _, ms := range b.spec.PerLayer {
			rw := row{Name: ms.Name, Unit: ms.Unit}
			if v, ok := wr.layer[ms.Name]; ok {
				rw.Median = &v
				if rw.Values = m.values(ms.Name, true); len(rw.Values) > 1 {
					rw.Min, rw.Max = slices.Min(rw.Values), slices.Max(rw.Values)
				}
			}
			wr.PerLayer = append(wr.PerLayer, rw)
		}
	}
	wr.EndToEnd = b.endToEnd(m)
	fmt.Printf("\n== %s: clock %s; %s; %d frames per repeat, %d repeats in fresh processes, GOMAXPROCS %d, seed %d\n",
		name, wr.Clock, wr.Loop, m.Manifest.Frames, len(m.Repeats), b.procs, seed)
	fmt.Printf("   why: %s\n", why)
	printRows("end-to-end metric", wr.EndToEnd)
	if micro != nil {
		printRows("per-layer metric", wr.PerLayer)
	}
	fmt.Printf("  attempted %d, failed %d, digest mismatches %d\n", m.Attempted, m.Failed, m.Mismatches)
	for _, c := range m.Checks {
		fmt.Println("  CHECK FAILED:", c)
	}
	return wr, nil
}

// runAll is the suite: the micro-drivers, then every workload (count
// untraced repeats; the smoke test asks for one) with its per-layer metrics.
func (b *bench) runAll(seed int64, count int) ([]*workloadReport, error) {
	micro, err := b.micro()
	if err != nil {
		return nil, err
	}
	b.settle()
	var reports []*workloadReport
	for _, w := range b.spec.Workloads {
		wr, err := b.runWorkload(w.Name, w.Why, seed, count, micro)
		if err != nil {
			return nil, err
		}
		reports = append(reports, wr)
	}
	return reports, nil
}

func failures(reports []*workloadReport) error {
	n := 0
	for _, r := range reports {
		n += len(r.Checks)
	}
	if n > 0 {
		return fmt.Errorf("%d output checks failed", n)
	}
	return nil
}

func (b *bench) writeResults(v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.out, "results.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nresults written to", path)
	return nil
}

// suite is the one command: every metric of every workload, by name.
func (b *bench) suite(seed int64) error {
	reports, err := b.runAll(seed, repeats)
	if err != nil {
		return err
	}
	if err := b.writeResults(map[string]any{"seed": seed, "gomaxprocs": b.procs, "claim": nil, "workloads": reports}); err != nil {
		return err
	}
	return failures(reports)
}

// selftest measures every workload twice on the same code, the second set
// right after the first, and fails if the two medians of any end-to-end
// metric lie further apart — in either direction, as a share of the smaller —
// than the bound the benchmark itself sets. (Workload by workload rather than
// suite by suite: this sandbox slows down under sustained load and takes a
// while to recover, so a set measured after the heavy sim workloads would
// differ from one measured before them for reasons that have nothing to do
// with the code.)
func (b *bench) selftest(seed int64) error {
	var sets [2][]*workloadReport
	b.settle()
	for _, w := range b.spec.Workloads {
		for i := range sets {
			fmt.Printf("\n#### selftest: %s, set %d of 2\n", w.Name, i+1)
			wr, err := b.runWorkload(w.Name, w.Why, seed, repeats, nil)
			if err != nil {
				return err
			}
			sets[i] = append(sets[i], wr)
		}
	}
	for _, set := range sets {
		if err := failures(set); err != nil {
			return err
		}
	}
	fmt.Printf("\n#### selftest: set 2 against set 1 (apart: share of the smaller median; + set 2 is the worse one)\n")
	fmt.Printf("  %-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "apart", "bound")
	bad := 0
	for wi, w := range sets[0] {
		for mi, ms := range b.spec.EndToEnd {
			a, c := *w.EndToEnd[mi].Median, *sets[1][wi].EndToEnd[mi].Median
			apart := math.Abs(c-a) / math.Min(a, c)
			verdict := ""
			if apart > ms.Bound {
				verdict = "  OUT OF BOUND"
				bad++
			}
			if c != a && (c < a) == (ms.Better == "lower") {
				apart = -apart // set 2 is the better one
			}
			fmt.Printf("  %-14s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.Workload, ms.Name, a, c, 100*apart, 100*ms.Bound, verdict)
		}
	}
	if err := b.writeResults(map[string]any{"seed": seed, "gomaxprocs": b.procs, "selftest": sets}); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("selftest: %d metrics lie further apart than their bound between two runs of the same code", bad)
	}
	return nil
}
