package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// ReadyInfo is the JSON a fleet binary writes to its -ready-file once its
// listeners are bound: the orchestrator's address-discovery handshake
// (every listener binds :0, so addresses are only known at runtime).
type ReadyInfo struct {
	Role    string `json:"role"`              // edge, cloud, client
	Addr    string `json:"addr,omitempty"`    // data-plane listen address
	Control string `json:"control,omitempty"` // control-channel address
	Debug   string `json:"debug,omitempty"`   // debug/metrics address
	PID     int    `json:"pid,omitempty"`
}

// WriteReady atomically publishes the ready file (write-then-rename, so a
// polling orchestrator never reads a torn write).
func WriteReady(path string, info ReadyInfo) error {
	if info.PID == 0 {
		info.PID = os.Getpid()
	}
	b, err := json.Marshal(info)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// waitReady polls for the ready file until it parses or the deadline hits.
func waitReady(path string, timeout time.Duration, alive func() bool) (*ReadyInfo, error) {
	deadline := time.Now().Add(timeout)
	for {
		b, err := os.ReadFile(path)
		if err == nil && len(b) > 0 {
			var info ReadyInfo
			if err := json.Unmarshal(b, &info); err == nil {
				return &info, nil
			}
		}
		if alive != nil && !alive() {
			return nil, fmt.Errorf("fleet: process exited before writing %s", filepath.Base(path))
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fleet: timed out waiting for %s", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// proc is one spawned fleet process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error
}

// startProc launches this executable as the role subcommand (edge, cloud
// or client) with args, tee-ing output to logPath: the binary that runs a
// fleet is also its processes.
func startProc(name, role string, args []string, logPath string) (*proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fleet: start %s: %w", name, err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{role}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("fleet: start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// alive reports whether the process is still running.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill fail-stops the process (SIGKILL): the fleet's edge_crash. No
// flush, no goodbye — exactly what the WAL must survive.
func (p *proc) kill() {
	if p.alive() {
		p.cmd.Process.Kill()
	}
	<-p.done
}

// term asks for a graceful shutdown (SIGTERM: report and trace flush) and
// waits, escalating to SIGKILL at the deadline.
func (p *proc) term(timeout time.Duration) error {
	if p.alive() {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-p.done:
		return p.err
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("fleet: %s did not stop on SIGTERM within %s", p.name, timeout)
	}
}

// waitExit blocks until the process exits on its own.
func (p *proc) waitExit(timeout time.Duration) error {
	select {
	case <-p.done:
		return p.err
	case <-time.After(timeout):
		return fmt.Errorf("fleet: %s still running after %s", p.name, timeout)
	}
}
