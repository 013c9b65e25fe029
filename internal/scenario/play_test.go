package scenario

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"croesus/internal/vclock"
)

// recorder is a Driver that logs every call with its clock time. Crash
// reports false for the edges in dark, as if another crash had already
// downed them.
type recorder struct {
	clk       *vclock.Sim
	dark      map[string]bool
	scheduled []string
	calls     []string
}

func (r *recorder) log(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf("%s %s", r.clk.Now(), fmt.Sprintf(format, args...)))
}

func (r *recorder) Schedule(at time.Duration, label string, fn func() (time.Duration, func())) {
	r.scheduled = append(r.scheduled, label)
	r.clk.Go(func() {
		r.clk.Sleep(at - r.clk.Now())
		if after, undo := fn(); undo != nil {
			r.clk.Sleep(after)
			undo()
		}
	})
}

func (r *recorder) Join(cam Camera)           { r.log("join %s", cam.ID) }
func (r *recorder) Stop(camera string)        { r.log("stop %s", camera) }
func (r *recorder) Migrate(camera, to string) { r.log("migrate %s %s", camera, to) }
func (r *recorder) Shift(camera string, rate, _, _ *float64) {
	r.log("shift %s %g", camera, *rate)
}
func (r *recorder) Retire(edge string) { r.log("retire %s", edge) }
func (r *recorder) Crash(edge string) bool {
	r.log("crash %s", edge)
	return !r.dark[edge]
}
func (r *recorder) Restart(edge string) { r.log("restart %s", edge) }
func (r *recorder) ArmTwoPCCrash(edge, point string, round int, restartAfter time.Duration) {
	r.log("arm %s %s %d %s", edge, point, round, restartAfter)
}
func (r *recorder) SetLink(a, b string, down bool) { r.log("link %s %s %v", a, b, down) }
func (r *recorder) Checkpoint(edge string)         { r.log("checkpoint %s", edge) }

func sec(s float64) Duration { return Duration(s * float64(time.Second)) }

// TestPlayTimeline pins the player: events are scheduled in timeline order
// (stable on ties), a link fault heals at its heal instant, a crash
// restarts restart_after later, and a crash that did not down its edge
// owns no restart.
func TestPlayTimeline(t *testing.T) {
	rate := 2.0
	s := &Scenario{Timeline: []Event{
		{At: sec(4), Do: KindEdgeCrash, Edge: "dark", RestartAfter: sec(1)},
		{At: sec(2), Do: KindLinkFault, A: "a", B: "b", Heal: sec(5)},
		{At: sec(1), Do: KindEdgeCrash, Edge: "a", RestartAfter: sec(2.5)},
		{At: sec(1), Do: KindWorkloadShift, Camera: "c", Rate: &rate},
		{At: sec(1), Do: KindMigrateCamera, Camera: "c", To: "b"},
		{At: sec(6), Do: KindTwoPCCrash, Edge: "b", Point: PointAfterPrepare, Round: 2, RestartAfter: sec(1)},
		{At: sec(7), Do: KindCheckpoint},
	}}
	clk := vclock.NewSim()
	r := &recorder{clk: clk, dark: map[string]bool{"dark": true}}
	Play(s, r)
	clk.Wait()

	wantScheduled := []string{
		"crash:a", "shift:c", "migrate:c→b", "partition:a↔b", "crash:dark", "2pc-crash:b", "checkpoint:fleet",
	}
	if !reflect.DeepEqual(r.scheduled, wantScheduled) {
		t.Errorf("scheduled %q, want %q", r.scheduled, wantScheduled)
	}
	wantCalls := []string{
		"1s crash a",
		"1s shift c 2",
		"1s migrate c b",
		"2s link a b true",
		"3.5s restart a",
		"4s crash dark",
		"5s link a b false",
		"6s arm b after-prepare 2 1s",
		"7s checkpoint ",
	}
	if !reflect.DeepEqual(r.calls, wantCalls) {
		t.Errorf("calls:\n%q\nwant:\n%q", r.calls, wantCalls)
	}
}
