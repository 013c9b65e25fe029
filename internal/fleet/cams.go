package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"croesus/internal/wire"
)

// procCam is one camera: a spawned croesus client driven over its control
// channel. The client writes its ClientReport JSON to reportPath at exit
// (normal end, quit op, or SIGTERM).
type procCam struct {
	name       string
	p          *proc
	ctl        *ControlClient
	reportPath string
	trace      string
}

// startProcCam spawns one croesus client for a camera.
func (f *fleetRun) startProcCam(camID, edgeAddr, profile string, seed int64, frames int) (*procCam, error) {
	ready := filepath.Join(f.dir, "client-"+camID+".ready")
	os.Remove(ready)
	reportPath := filepath.Join(f.dir, "client-"+camID+".json")
	args := []string{
		"-edge", edgeAddr,
		"-video", profile,
		"-camera", camID,
		"-frames", strconv.Itoa(frames),
		"-seed", strconv.FormatInt(seed, 10),
		"-timescale", fmt.Sprintf("%g", f.ts),
		"-frame-timeout", f.o.FrameTimeout.String(),
		"-control", "127.0.0.1:0",
		"-ready-file", ready,
		"-report", reportPath,
		"-quiet",
	}
	trace := ""
	if f.o.Trace {
		trace = filepath.Join(f.dir, "trace-client-"+camID+".jsonl")
		args = append(args, "-trace", trace)
	}
	p, err := startProc("client-"+camID, "client", args,
		filepath.Join(f.dir, "client-"+camID+".log"))
	if err != nil {
		return nil, err
	}
	info, err := waitReady(ready, 15*time.Second, p.alive)
	if err != nil {
		p.kill()
		return nil, err
	}
	ctl, err := DialControl(info.Control)
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("fleet: client %s control: %w", camID, err)
	}
	return &procCam{name: camID, p: p, ctl: ctl, reportPath: reportPath, trace: trace}, nil
}

func (c *procCam) rate(mult float64) error {
	_, err := c.ctl.CallOK(wire.Control{Op: OpRate, Rate: mult}, 0)
	return err
}

func (c *procCam) redial(addr string) error {
	_, err := c.ctl.CallOK(wire.Control{Op: OpRedial, Addr: addr}, 0)
	return err
}

func (c *procCam) stop() {
	c.ctl.Call(wire.Control{Op: OpQuit}, 5*time.Second)
}

// wait blocks for the stream's end and returns its report; ok=false means
// the report could not be recovered.
func (c *procCam) wait(timeout time.Duration) (ClientReport, bool) {
	if err := c.p.waitExit(timeout); err != nil {
		// Still running past the deadline: ask it to stop, then read
		// whatever report it flushes.
		c.stop()
		c.p.term(10 * time.Second)
	}
	c.ctl.Close()
	b, err := os.ReadFile(c.reportPath)
	if err != nil {
		return ClientReport{Camera: c.name}, false
	}
	var rep ClientReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return ClientReport{Camera: c.name}, false
	}
	return rep, true
}
