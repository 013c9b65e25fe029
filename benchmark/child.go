package main

// One repeat of one workload, in a process of its own. The parent re-execs
// the benchmark binary with -child; the child reads the generated inputs,
// sets up, runs the timed section once, checks the outputs and prints one
// JSON object — a result — as the last line of its standard output.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"croesus/internal/obs"
)

// result is what one child reports. E2E holds the end-to-end metrics the
// child can see from inside (peak RSS is read by the parent from the
// child's rusage); Layer the per-layer metrics of sources C and T. A
// per-layer metric absent from Layer was not executed by the workload.
type result struct {
	Workload string `json:"workload"`
	Frames   int    `json:"frames"` // attempted, warm-up excluded
	Failed   int    `json:"failed"`
	// Checks lists every output check that failed; empty means correct.
	Checks []string `json:"checks,omitempty"`
	// Digest hashes the simulated report (sim_* only): repeats of one seed
	// must agree byte for byte.
	Digest string             `json:"digest,omitempty"`
	E2E    map[string]float64 `json:"e2e"`
	Layer  map[string]float64 `json:"layer"`
}

func (r *result) failf(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// tracing is the traced repeat's equipment: the span sink handed to the
// program through its public Obs options, and the child's own CPU profile.
type tracing struct {
	dir string
	// obs by emitting process: one per scenario play, or the tcp
	// deployment's client, edge and cloud.
	obs map[string]*obs.Obs
	// unit converts a span duration to microseconds in the workload's
	// clock (the tcp servers run on a scaled clock).
	unitUS   float64
	profiles []string
}

func newTracing(dir string) *tracing {
	return &tracing{dir: dir, obs: map[string]*obs.Obs{}, unitUS: 1e-3}
}

// sink returns the Obs for one emitting process, creating it with a span
// cap sized to the run so nothing is dropped.
func (t *tracing) sink(proc string, frames int) *obs.Obs {
	if t == nil {
		return nil
	}
	if o, ok := t.obs[proc]; ok {
		return o
	}
	n := frames * 128
	if n < obs.DefaultTracerCap {
		n = obs.DefaultTracerCap
	}
	o := &obs.Obs{Trace: obs.NewTracerCap(n), Reg: obs.NewRegistry()}
	o.Trace.SetProc(proc)
	t.obs[proc] = o
	return o
}

// procMeter brackets the timed sections (sim_sharded has two) with the
// process's own accounting, and in a traced run with a CPU profile each.
type procMeter struct {
	trace *tracing

	wall, cpu               float64
	mallocs, bytes, pauseNs uint64

	t0   time.Time
	ru   syscall.Rusage
	ms   runtime.MemStats
	prof *os.File
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

func (m *procMeter) begin() error {
	if tr := m.trace; tr != nil {
		f, err := os.Create(fmt.Sprintf("%s/cpu-%d.pprof", tr.dir, len(tr.profiles)))
		if err != nil {
			return err
		}
		tr.profiles = append(tr.profiles, f.Name())
		m.prof = f
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m.ms)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru); err != nil {
		return err
	}
	m.t0 = time.Now()
	return nil
}

func (m *procMeter) end() error {
	m.wall += time.Since(m.t0).Seconds()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.cpu += cpuSeconds(&ru) - cpuSeconds(&m.ru)
	m.mallocs += ms.Mallocs - m.ms.Mallocs
	m.bytes += ms.TotalAlloc - m.ms.TotalAlloc
	m.pauseNs += ms.PauseTotalNs - m.ms.PauseTotalNs
	if m.prof != nil {
		pprof.StopCPUProfile()
		return m.prof.Close()
	}
	return nil
}

// record writes the proc.* metrics for frames attempted frames.
func (m *procMeter) record(r *result, frames int) {
	r.Layer["proc.cpu_s_per_kframe"] = m.cpu / float64(frames) * 1000
	r.Layer["proc.cpu_wall_ratio"] = m.cpu / m.wall
	r.Layer["proc.allocs_per_frame"] = float64(m.mallocs) / float64(frames)
	r.Layer["proc.alloc_kb_per_frame"] = float64(m.bytes) / 1024 / float64(frames)
	r.Layer["proc.gc_pause_ms"] = float64(m.pauseNs) / 1e6
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies turns per-frame initial and final latencies (milliseconds, in
// the workload's clock) into the percentile metrics and the ordering check.
func (r *result) latencies(initial, final []float64) {
	for i := range initial {
		if final[i] < initial[i] {
			r.failf("frame %d: final commit (%.3f ms) before initial commit (%.3f ms)", i, final[i], initial[i])
			r.Failed++
			break
		}
	}
	sort.Float64s(initial)
	sort.Float64s(final)
	r.E2E["initial_p50_ms"] = percentile(initial, 50)
	r.E2E["initial_p90_ms"] = percentile(initial, 90)
	r.E2E["final_p50_ms"] = percentile(final, 50)
	r.E2E["final_p90_ms"] = percentile(final, 90)
	r.Layer["client.initial_p99_ms"] = percentile(initial, 99)
	r.Layer["client.final_p99_ms"] = percentile(final, 99)
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runChild is the -child entry point: it runs the workload whose inputs
// are in dir and prints the result.
func runChild(dir string, trace bool, procs int) error {
	runtime.GOMAXPROCS(procs)
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	var tr *tracing
	if trace {
		tr = newTracing(dir)
	}
	r := &result{Workload: m.Workload, Frames: m.Frames, E2E: map[string]float64{}, Layer: map[string]float64{}}
	switch m.Clock {
	case "virtual":
		err = runSim(m, dir, tr, r)
	default:
		err = runTCP(m, dir, tr, r)
	}
	if err != nil {
		return err
	}
	if f1 := r.E2E["f1_final"]; f1 < 0.85 {
		r.failf("f1_final %.3f below 0.85", f1)
	}
	if r.Failed > r.Frames {
		r.Failed = r.Frames
	}
	r.E2E["completed_share"] = 1 - float64(r.Failed)/float64(r.Frames)
	if tr != nil {
		if err := tr.analyse(r); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}
