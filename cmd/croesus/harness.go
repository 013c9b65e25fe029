package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"

	"croesus/internal/fleet"
	"croesus/internal/obs"
)

// harness is what every subcommand shares around its own work: a flag set
// and a logger on stderr, and, by the flag groups it asks for, the
// observability layer with its debug endpoint and trace file, the CPU and
// heap profiles, and the role processes' control channel, ready file and
// wait for a signal or a quit op. Each of these flags is declared here
// once.
type harness struct {
	name string
	fs   *flag.FlagSet
	log  *log.Logger

	debugAddr, traceOut, cpuProfile, memProfile, control, readyFile string

	obs        *obs.Obs // nil unless -debug-addr or -trace is set
	debugBound string
	cpuFile    *os.File // the CPU profile being written
	ctl        *fleet.ControlServer
	quit       chan struct{}
	quitOnce   sync.Once
}

// The flag groups a subcommand can take from the harness.
const (
	debugFlag    = 1 << iota // -debug-addr
	traceFlag                // -trace
	profileFlags             // -cpuprofile, -memprofile
	controlFlags             // -control, -ready-file
)

// newHarness builds a subcommand's flag set, with the groups asked for
// already declared, and its logger (logFlags as for log.New).
func newHarness(name string, stderr io.Writer, logFlags, groups int) *harness {
	h := &harness{
		name: name,
		fs:   flag.NewFlagSet("croesus "+name, flag.ContinueOnError),
		log:  log.New(stderr, "", logFlags),
		quit: make(chan struct{}),
	}
	h.fs.SetOutput(stderr)
	if groups&debugFlag != 0 {
		h.fs.StringVar(&h.debugAddr, "debug-addr", "", "serve /metrics (Prometheus text), /debug/vars (expvar), and /debug/pprof on this address (e.g. 127.0.0.1:9410)")
	}
	if groups&traceFlag != 0 {
		h.fs.StringVar(&h.traceOut, "trace", "", "record spans and write them to this file at exit: sorted JSONL when the name ends in .jsonl (merge with croesus trace), Chrome trace_event JSON (open in Perfetto) otherwise")
	}
	if groups&profileFlags != 0 {
		h.fs.StringVar(&h.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
		h.fs.StringVar(&h.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	}
	if groups&controlFlags != 0 {
		h.fs.StringVar(&h.control, "control", "", "serve the fleet control channel on this address (e.g. 127.0.0.1:0)")
		h.fs.StringVar(&h.readyFile, "ready-file", "", "write a JSON ready file with the bound addresses once serving")
	}
	return h
}

// parse parses args; on failure it returns the exit code and false (0 for
// -h, 2 for a bad flag, whose error the flag set has already printed).
func (h *harness) parse(args []string) (int, bool) {
	err := h.fs.Parse(args)
	switch {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

// usage logs a usage error and returns its exit code.
func (h *harness) usage(format string, args ...any) int {
	h.log.Printf(h.name+": "+format, args...)
	return 2
}

// start sets up what the flags ask for before the work: the observability
// layer (its tracer names proc, when not empty) with its debug endpoint,
// then the CPU profile. Every return after a successful start goes through
// finish.
func (h *harness) start(proc string) error {
	if h.debugAddr != "" || h.traceOut != "" {
		h.obs = obs.New()
		if proc != "" {
			h.obs.Tracer().SetProc(proc)
		}
	}
	if h.debugAddr != "" {
		bound, err := obs.ServeDebug(h.debugAddr, h.obs.Reg)
		if err != nil {
			return err
		}
		h.debugBound = bound
		h.log.Printf("%s: debug endpoint on http://%s/metrics", h.name, bound)
	}
	if h.cpuProfile != "" {
		f, err := os.Create(h.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		h.cpuFile = f
	}
	return nil
}

// serve opens the control channel and publishes the ready file, when the
// flags ask for them. addr is the data-plane address the role listens on
// (none for a client).
func (h *harness) serve(addr string, handlers *fleet.Handler) error {
	if h.control != "" {
		ctl, err := fleet.ServeControl(h.control, handlers)
		if err != nil {
			return fmt.Errorf("control: %w", err)
		}
		h.ctl = ctl
		h.log.Printf("%s: control channel on %s", h.name, ctl.Addr())
	}
	if h.readyFile != "" {
		info := fleet.ReadyInfo{Role: h.name, Addr: addr, Debug: h.debugBound}
		if h.ctl != nil {
			info.Control = h.ctl.Addr()
		}
		if err := fleet.WriteReady(h.readyFile, info); err != nil {
			return fmt.Errorf("ready file: %w", err)
		}
	}
	return nil
}

// requestQuit ends wait; the control channel's quit op calls it.
func (h *harness) requestQuit() { h.quitOnce.Do(func() { close(h.quit) }) }

// wait blocks until SIGINT, SIGTERM or requestQuit, then closes the
// control channel: a quit op and a signal take the same graceful path.
func (h *harness) wait() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case <-h.quit:
	}
	signal.Stop(sig)
	if h.ctl != nil {
		h.ctl.Close()
	}
}

// finish undoes start: it stops the CPU profile and writes the heap
// profile and the trace file. It returns code, or 1 when code is 0 and a
// file could not be written.
func (h *harness) finish(code int) int {
	fail := func(what string, err error) {
		h.log.Printf("%s: %s: %v", h.name, what, err)
		if code == 0 {
			code = 1
		}
	}
	if h.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := h.cpuFile.Close(); err != nil {
			fail("CPU profile", err)
		}
	}
	if h.memProfile != "" {
		runtime.GC()
		if err := writeFile(h.memProfile, pprof.WriteHeapProfile); err != nil {
			fail("heap profile", err)
		}
	}
	if h.traceOut != "" {
		spans := h.obs.Tracer().Spans()
		if err := writeFile(h.traceOut, func(w io.Writer) error { return obs.WriteTraceFile(w, h.traceOut, spans) }); err != nil {
			fail("trace", err)
		} else {
			h.log.Printf("%s: wrote %s (%s)", h.name, h.traceOut, obs.DescribeTrace(spans))
		}
		if d := h.obs.Tracer().Dropped(); d > 0 {
			h.log.Printf("%s: trace: %d spans dropped at the tracer's capacity — the file is incomplete", h.name, d)
		}
	}
	return code
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
