package main

// The traced repeat's analysis (source T of the per-layer metrics): span
// self times from the program's own tracer, read through the public Obs
// option, and the child's CPU profile attributed to repository packages.

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"croesus/internal/obs"
)

// spanMetrics maps the span names of obs/names.go to their metric.
var spanMetrics = map[string]string{
	obs.SpanFrameIngest: "span.frame_ingest_p50_us",
	obs.SpanPoolWait:    "span.pool_wait_p50_us",
	obs.SpanEdgeDetect:  "span.edge_detect_p50_us",
	obs.SpanInitialTxn:  "span.txn_initial_p50_us",
	obs.SpanLockWait:    "span.lock_wait_p50_us",
	obs.SpanRPCCloud:    "span.rpc_cloud_p50_us",
	obs.SpanBatchQueue:  "span.batch_queue_p50_us",
	obs.SpanBatchRun:    "span.batch_run_p50_us",
	obs.SpanFinalTxn:    "span.txn_final_p50_us",
	obs.SpanTwoPC:       "span.twopc_commit_p50_us",
	obs.SpanWALReplay:   "span.wal_replay_p50_us",
}

// cpuLayers are the packages with a cpu.<layer>_pct metric of their own.
var cpuLayers = map[string]bool{}

func init() {
	for _, l := range strings.Fields("detect randsrc video core txn lock store wal twopc faults cluster scenario vclock transport wire tcpnet obs metrics") {
		cpuLayers[l] = true
	}
}

func (t *tracing) analyse(r *result) error {
	var spans []obs.Span
	dropped := int64(0)
	for _, o := range t.obs {
		spans = append(spans, o.Trace.Spans()...)
		dropped += o.Trace.Dropped()
	}
	f, err := os.Create(filepath.Join(t.dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteJSONL(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	self := selfTimes(spans)
	byName := map[string][]float64{}
	roots := 0
	for i, s := range spans {
		if s.Name == obs.SpanFrameRoot {
			roots++
		}
		if _, ok := spanMetrics[s.Name]; ok {
			byName[s.Name] = append(byName[s.Name], float64(self[i])*t.unitUS)
		}
	}
	for name, v := range byName {
		sort.Float64s(v)
		r.Layer[spanMetrics[name]] = percentile(v, 50)
	}
	if roots > 0 {
		r.Layer["obs.spans_per_frame"] = float64(len(spans)) / float64(roots)
	}
	r.Layer["obs.spans_dropped"] = float64(dropped)

	shares, samples, err := cpuShares(t.profiles)
	if err != nil {
		return err
	}
	r.Layer["cpu.samples"] = samples
	for bucket, pct := range shares {
		r.Layer["cpu."+bucket+"_pct"] = pct
	}
	return nil
}

// nestRank orders spans with identical intervals outermost first.
func nestRank(name string) int {
	switch name {
	case obs.SpanClientFrame:
		return 0
	case obs.SpanFrameRoot:
		return 1
	case obs.SpanInitialTxn, obs.SpanFinalTxn, obs.SpanSectionTxn, obs.SpanCloudValidate, obs.SpanRPCCloud, obs.SpanCloudRequest:
		return 2
	}
	return 3
}

// selfTimes returns, per span, its duration minus the part its children
// cover. A span's children are the spans that name it as parent; the
// program also emits siblings that nest by time under one parent (a
// lock.wait inside a txn.initial, both children of frame.root), and those
// count as children of the sibling that encloses them. A child recorded by
// another process, on another clock, is subtracted by its length.
func selfTimes(spans []obs.Span) []int64 {
	type key struct{ trace, id uint64 }
	type group struct {
		trace, parent uint64
		proc          string
	}
	byID := map[key]int{}
	groups := map[group][]int{}
	for i, s := range spans {
		if s.Trace == 0 {
			continue
		}
		if s.ID != 0 {
			byID[key{s.Trace, s.ID}] = i
		}
		g := group{s.Trace, s.Parent, s.Proc}
		groups[g] = append(groups[g], i)
	}
	parent := make([]int, len(spans))
	for i, s := range spans {
		parent[i] = -1
		if s.Trace != 0 && s.Parent != 0 {
			if p, ok := byID[key{s.Trace, s.Parent}]; ok && p != i {
				parent[i] = p
			}
		}
	}
	for _, idx := range groups {
		sort.Slice(idx, func(a, b int) bool {
			x, y := spans[idx[a]], spans[idx[b]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			if x.End != y.End {
				return x.End > y.End
			}
			return nestRank(x.Name) < nestRank(y.Name)
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				parent[i] = stack[len(stack)-1]
			}
			stack = append(stack, i)
		}
	}

	children := make([][]int, len(spans))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		dur := int64(s.End - s.Start)
		covered := int64(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		edge := s.Start
		for _, k := range kids {
			c := spans[k]
			if c.Proc != s.Proc {
				covered += int64(c.End - c.Start)
				continue
			}
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += int64(hi - lo)
				edge = hi
			}
		}
		if covered > dur {
			covered = dur
		}
		self[i] = dur - covered
	}
	return self
}

// cpuShares attributes every sample of the CPU profiles to one bucket and
// returns the buckets' shares in percent (they sum to 100) and the number
// of samples behind them.
func cpuShares(paths []string) (map[string]float64, float64, error) {
	weight := map[string]float64{}
	samples, total := 0.0, 0.0
	for _, path := range paths {
		stacks, err := readProfile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		for _, st := range stacks {
			weight[cpuBucket(st.funcs)] += st.value
			total += st.value
			samples += st.count
		}
	}
	shares := map[string]float64{"go_gc": 0, "go_sched": 0, "syscall": 0, "bench": 0, "other": 0}
	for l := range cpuLayers {
		shares[l] = 0
	}
	if total > 0 {
		for b, w := range weight {
			shares[b] = 100 * w / total
		}
	}
	return shares, samples, nil
}

// cpuBucket names the bucket of one stack, leaf first: the innermost frame
// that belongs to a package of this repository decides, so memmove under
// randsrc.Get counts for randsrc and a futex under vclock.Sleep for vclock.
// A stack with no such frame is the Go runtime's own work.
func cpuBucket(funcs []string) string {
	const internal = "croesus/internal/"
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if strings.HasPrefix(fn, internal) {
			pkg := fn[len(internal):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if cpuLayers[pkg] {
				return pkg
			}
			return "other"
		}
	}
	has := func(prefixes ...string) bool {
		for _, fn := range funcs {
			for _, p := range prefixes {
				if strings.HasPrefix(fn, p) {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has("runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*gcWork)", "runtime.scanobject", "runtime.markroot", "runtime.mallocgc", "runtime.sweepone"):
		return "go_gc"
	case has("syscall.", "internal/poll.", "internal/runtime/syscall.", "runtime.netpoll", "net."):
		return "syscall"
	case has("runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.mstart", "runtime.goschedImpl", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.ready", "runtime.goready"):
		return "go_sched"
	}
	return "other"
}

// stack is one profile sample: function names leaf first, the CPU time it
// stands for and how many samples it merges.
type stack struct {
	funcs []string
	value float64
	count float64
}

// readProfile decodes the subset of the pprof protobuf format that CPU
// attribution needs (samples, locations, functions, the string table); the
// repository takes no dependencies, so there is no profile package to call.
func readProfile(path string) ([]stack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{count: float64(s.values[0]), value: float64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message: fn gets the field number and either
// the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field tag")
		}
		b = b[n:]
		num, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
