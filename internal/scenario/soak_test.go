package scenario

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"testing"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/wal"
)

// TestMain lets the soak gate re-execute this test binary as a child that
// plays one soak length cold: `soak <frames>` argv runs the play, prints
// its result line and exits.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "soak" {
		os.Exit(soakChild(os.Args[2]))
	}
	os.Exit(m.Run())
}

// soakScenario is migrate.json's fleet (three edges, three cameras, 30 %
// cross-edge keys, a checkpoint every 8 s) with only its two crashes: an
// edge crash and a participant crash right after its yes vote. Every
// camera captures frames at 2 frames/s.
func soakScenario(frames int) (*Scenario, error) {
	return Decode([]byte(fmt.Sprintf(`{
  "version": 1,
  "name": "durable-soak",
  "seed": 42,
  "topology": {
    "edges": [{ "id": "north" }, { "id": "mid" }, { "id": "south", "speed": 0.7 }],
    "cameras": [
      { "id": "corridor", "profile": "street-vehicles", "edge": "north", "frames": %[1]d },
      { "id": "crossing", "profile": "street-person", "edge": "mid", "frames": %[1]d },
      { "id": "park", "profile": "park-dog", "edge": "south", "frames": %[1]d }
    ],
    "cross_edge_fraction": 0.3,
    "batcher": { "max_batch": 8, "slo": "80ms" },
    "checkpoint_every": "8s"
  },
  "timeline": [
    { "at": "4s", "do": "edge_crash", "edge": "mid", "restart_after": "2s" },
    { "at": "6s", "do": "twopc_crash", "edge": "south", "point": "participant-prepared", "round": 1, "restart_after": "1s" }
  ]
}`, frames)))
}

// soakProbeEvery spaces the soak's own checkpoint probes, each 1 s after
// one of the fleet's checkpoint ticks.
const soakProbeEvery = 8 * time.Second

// soakResult is what one cold play of the soak scenario reports.
type soakResult struct {
	Frames int   // frames the run completed
	Heap   int64 // live heap the run keeps, counted from before the fleet is built
	Keys   int   // keys the partitions hold after the run
	// Decisions is how many commit decisions the last probe's checkpoints
	// carried over every edge, and InFlight how many commit rounds were in
	// flight then. Exceeded counts probes whose checkpoints carried more
	// decisions than there were rounds in flight.
	Decisions, InFlight, Exceeded int
}

const soakFormat = "soak frames=%d heap=%d keys=%d decisions=%d inflight=%d exceeded=%d"

// probe checkpoints every live edge and counts the commit decisions each
// rewritten log carries, against the commit rounds in flight: staged at a
// live partition, or in doubt in a down partition's log.
func (r *soakResult) probe(c *cluster.Cluster) error {
	inj := c.Injector()
	inFlight := map[twopc.CommitRound]bool{}
	decisions := 0
	for e, edge := range c.Edges() {
		p := edge.Partition
		if inj.Down(e) {
			_, inDoubt, err := wal.Probe(p.WALPath())
			if err != nil {
				return err
			}
			for _, d := range inDoubt {
				inFlight[twopc.CommitRound{ID: txn.ID(d.Txn), Round: d.Round}] = true
			}
			continue
		}
		for coord := range c.Edges() {
			for _, cr := range p.StagedBy(coord) {
				inFlight[cr] = true
			}
		}
		if !inj.Checkpoint(e) {
			continue // a live 2PC block is staged there
		}
		if _, _, err := wal.Replay(p.WALPath(), func(rec wal.Record) error {
			if rec.Op == wal.OpCommit {
				decisions++
			}
			return nil
		}); err != nil {
			return err
		}
	}
	r.Decisions, r.InFlight = decisions, len(inFlight)
	if decisions > len(inFlight) {
		r.Exceeded++
	}
	return nil
}

// playSoak plays the soak scenario at frames per camera on the virtual
// clock, probing checkpoints while the cameras stream, and measures the
// live heap the run keeps.
func playSoak(frames int) (soakResult, error) {
	var res soakResult
	s, err := soakScenario(frames)
	if err != nil {
		return res, err
	}
	// Two collections empty the sync.Pools (a pooled object survives one in
	// the victim cache), which would otherwise count as state kept.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	rt, err := New(s, vclock.NewSim())
	if err != nil {
		return res, err
	}
	defer rt.Cluster.Close()
	c := rt.Cluster
	c.Start()
	Play(s, rt)
	// One participant probes the whole run: every participant the clock
	// ever ran leaves a goroutine descriptor behind, which would count as
	// state the run keeps.
	var probeErr error
	end := time.Duration(frames) * 500 * time.Millisecond // the cameras' capture span
	c.Schedule(soakProbeEvery+time.Second, "", func() {
		for probeErr == nil && rt.clk.Now()+soakProbeEvery < end {
			probeErr = res.probe(c)
			rt.clk.Sleep(soakProbeEvery)
		}
	})
	c.StartCameras()
	rep := c.Drain()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if probeErr != nil {
		return res, probeErr
	}
	if err := c.Injector().VerifyDurability(); err != nil {
		return res, err
	}
	res.Frames = rep.Frames
	res.Heap = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	for _, e := range c.Edges() {
		res.Keys += e.Partition.Store.Len()
	}
	runtime.KeepAlive(rt)
	return res, nil
}

func soakChild(arg string) int {
	frames, err := strconv.Atoi(arg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	r, err := playSoak(frames)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf(soakFormat+"\n", r.Frames, r.Heap, r.Keys, r.Decisions, r.InFlight, r.Exceeded)
	return 0
}

// soakRecordBytes is the per-frame state a run must keep (the 32 B frame
// record), and soakMarginBytes what the gate allows on top of it.
const soakRecordBytes, soakMarginBytes = 32, 16

// TestDurableFleetStateFollowsLiveKeys is the soak gate: the durable
// sharded fleet plays the same crashes at two stream lengths, each in a
// fresh process so no global cache carries over, and the state it keeps
// must follow its live keys, not its history. Both lengths fill the
// keyspace (3 000 keys; at 200 frames per camera it holds 2 711), so each
// extra frame may keep its frame record plus a margin for the allocator's
// rounding of the record slices (about 37 B are kept). The checkpoints must not
// carry more commit decisions as the run grows longer, and none may carry
// more than the rounds in flight.
func TestDurableFleetStateFollowsLiveKeys(t *testing.T) {
	var runs [2]soakResult
	lengths := [2]int{800, 1600}
	for i, n := range lengths {
		var stderr bytes.Buffer
		cmd := exec.Command(os.Args[0], "soak", strconv.Itoa(n))
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("soak child at %d frames per camera: %v\n%s", n, err, stderr.String())
		}
		r := &runs[i]
		if _, err := fmt.Sscanf(string(out), soakFormat, &r.Frames, &r.Heap, &r.Keys, &r.Decisions, &r.InFlight, &r.Exceeded); err != nil {
			t.Fatalf("soak child at %d frames per camera printed %q: %v", n, out, err)
		}
		t.Logf("%d frames per camera: %+v", n, *r)
		if r.Exceeded > 0 {
			t.Errorf("at %d frames per camera, %d checkpoints carried more decisions than rounds in flight", n, r.Exceeded)
		}
	}
	short, long := runs[0], runs[1]
	if short.Keys != long.Keys {
		t.Fatalf("the keyspace is not full at %d frames per camera: %d keys, %d at %d", lengths[0], short.Keys, long.Keys, lengths[1])
	}
	perFrame := float64(long.Heap-short.Heap) / float64(long.Frames-short.Frames)
	t.Logf("%.1f B of live heap kept per extra frame", perFrame)
	if perFrame > soakRecordBytes+soakMarginBytes {
		t.Errorf("each extra frame keeps %.1f B, want ≤ %d (the %d B frame record plus %d)", perFrame, soakRecordBytes+soakMarginBytes, soakRecordBytes, soakMarginBytes)
	}
	if long.Decisions > short.Decisions {
		t.Errorf("the last checkpoint carries %d decisions at %d frames per camera, %d at %d: decisions grow with history", long.Decisions, lengths[1], short.Decisions, lengths[0])
	}
}
