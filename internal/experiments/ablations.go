package experiments

import (
	"fmt"
	"time"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/lock"
	"croesus/internal/metrics"
	"croesus/internal/netsim"
	"croesus/internal/node"
	"croesus/internal/store"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// AblationPolicy contrasts the two MS-SR acquisition policies on a
// hot-spot batch: blocking (Wait) trades aborts for queueing delay, while
// NoWait trades waiting for retries — the design choice behind Algorithm 1.
func AblationPolicy(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "ablation-policy",
		Title:  "MS-SR lock policy: blocking (Wait) vs abort (NoWait), 1000-key hot spot",
		Header: []string{"policy", "abort rate", "lock waits", "batch makespan"},
	}
	for _, p := range []struct {
		name   string
		policy txn.Policy
	}{
		{"Wait", txn.Wait},
		{"NoWait", txn.NoWait},
	} {
		r := runHotspotBatches(o, 1000, twopc.MSSR, p.policy, false, 300*time.Millisecond)
		t.Rows = append(t.Rows, []string{
			p.name,
			pct(float64(r.aborts) / float64(r.total)),
			fmt.Sprintf("%d", r.lockWaits),
			r.elapsed.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		"Wait (wait-die) queues when safe and restarts younger transactions whose wait would risk deadlock; NoWait never queues and sheds on every conflict. Waiting stretches lock windows, so neither policy strictly dominates on abort rate — the real trade-off is latency (makespan) versus immediate answers.")
	return t
}

// AblationSequencer measures what the MS-IA batch sequencer buys: the same
// hot-spot batch with and without conflict-free wave scheduling.
func AblationSequencer(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "ablation-sequencer",
		Title:  "MS-IA with vs without the batch sequencer (300-key hot spot)",
		Header: []string{"scheduling", "aborts", "lock waits", "batch makespan"},
	}
	for _, s := range []struct {
		name      string
		sequenced bool
	}{
		{"sequencer (conflict-free waves)", true},
		{"unsequenced (all concurrent)", false},
	} {
		r := runHotspotBatches(o, 300, twopc.MSIA, txn.Wait, s.sequenced, 50*time.Millisecond)
		t.Rows = append(t.Rows, []string{
			s.name,
			fmt.Sprintf("%d", r.aborts),
			fmt.Sprintf("%d", r.lockWaits),
			r.elapsed.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		"Neither schedule aborts (MS-IA blocks), but only the sequencer eliminates lock queueing entirely — the property the paper relies on for its 0% abort line.")
	return t
}

// AblationChain exercises the generalized m-stage model of §3.5: a
// three-node edge→regional→cloud graph against the standard two-node one
// on the street-vehicles video. The graphs run without a transaction
// source — the ablation is about labels and latency.
func AblationChain(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "ablation-chain",
		Title:  "Generalized multi-stage (§3.5): 2-stage vs 3-stage chain (street vehicles)",
		Header: []string{"chain", "F-score", "mean final ms", "frames stopped at s0/s1/s2"},
	}
	prof := video.StreetVehicles()
	frames := video.NewGenerator(prof, o.Seed).Generate(o.Frames)

	runChain := func(g *core.Graph) (string, string, string) {
		p, err := core.New(core.Config{
			Clock:     vclock.NewSim(),
			EdgeModel: detect.TinyYOLOSim(o.Seed),
			ThetaL:    0.40,
			PeerPath:  &netsim.Link{Name: "edge-regional", Propagation: 12 * time.Millisecond, Bandwidth: 25 << 20},
			Graph:     g,
		})
		if err != nil {
			panic("experiments: " + err.Error())
		}
		outs := p.ProcessVideo(frames)
		truth := core.TruthFromModel(g.Nodes[len(g.Nodes)-1].Model, frames)
		var counts [3]int
		var sumLat time.Duration
		var agg metrics.Counts
		for _, out := range outs {
			// Off-hub nodes record inference time only when the route
			// reached them.
			deepest := 0
			for k, sec := range out.Sections {
				if sec.Detect > 0 {
					deepest = k
				}
			}
			counts[deepest]++
			sumLat += out.FinalLatency
			agg.Add(metrics.ScoreClass(out.FinalVisible, truth(out.FrameIndex), prof.QueryClass, 0.10))
		}
		mean := sumLat / time.Duration(len(outs))
		return f3(agg.F1()), ms(mean), fmt.Sprintf("%d/%d/%d", counts[0], counts[1], counts[2])
	}

	cloud := detect.YOLOv3Sim(detect.YOLO608, o.Seed)
	twoStage := core.ModeCroesus.Graph(0.62, nil)
	twoStage.Nodes[1].Model = cloud
	threeStage := &core.Graph{Nodes: []core.GraphNode{
		{Name: "edge", Tier: txn.TierEdge, Switch: []core.SwitchBranch{
			{Lo: 0, Hi: 0.62, To: "regional"}, {Lo: 0.62, Hi: 1, To: core.DoneTarget}}},
		{Name: "regional", Tier: txn.TierPeer, Model: detect.YOLOv3Sim(detect.YOLO320, o.Seed), Switch: []core.SwitchBranch{
			{Lo: 0, Hi: 0.80, To: "cloud"}, {Lo: 0.80, Hi: 1, To: core.DoneTarget}}},
		{Name: "cloud", Tier: txn.TierCloud, Model: cloud},
	}}
	f2, l2, c2 := runChain(twoStage)
	t.Rows = append(t.Rows, []string{"2-stage (edge→cloud)", f2, l2, c2})
	f3v, l3, c3 := runChain(threeStage)
	t.Rows = append(t.Rows, []string{"3-stage (edge→regional→cloud)", f3v, l3, c3})
	t.Notes = append(t.Notes,
		"The intermediate stage absorbs most validations cheaply but adds a hop for frames that still need the full model — consistent with the paper's finding that extra stages add overhead without significant benefit for two-fold edge-cloud asymmetry.")
	return t
}

// AblationTwoPC compares the distributed-commit cost of the two protocols
// (§4.5): MS-IA pays a 2PC at both commits, MS-SR only at the final one.
func AblationTwoPC(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "ablation-2pc",
		Title:  "Multi-partition commit cost: MS-SR (one 2PC) vs MS-IA (two 2PCs), 3 partitions",
		Header: []string{"protocol", "2PC rounds", "prepare RPCs", "initial-commit visible early", "mean txn ms"},
	}
	for _, proto := range []twopc.Protocol{twopc.MSSR, twopc.MSIA} {
		clk := vclock.NewSim()
		route := twopc.HashPartitioner(3)
		fleet := node.NewFleet(clk, 3, route, nil, proto)
		links := make([]transport.Path, 3)
		links[1], links[2] = netsim.EdgeCloudSameSite(), netsim.EdgeCloudSameSite()
		mgr, parts, cc := fleet.Mgr, fleet.Parts, fleet.CC(0, links)
		const n = 40
		// probe is a lock owner no transaction uses: the initial commit is
		// visible early when a foreign owner can lock the key and read it.
		const probe = lock.Owner(1 << 62)
		var visibleEarly int
		clk.Run(func() {
			for i := 0; i < n; i++ {
				keyA := store.ItoaKey("a", i)
				keyB := store.ItoaKey("b", i)
				rw := txn.RWSet{Writes: []string{keyA, keyB}}
				in := mgr.NewInstance(&txn.Txn{
					Name:      "dist",
					InitialRW: rw,
					FinalRW:   rw,
					Initial: func(c *txn.Ctx) error {
						c.Put(keyA, store.Int64Value(1))
						c.Put(keyB, store.Int64Value(1))
						return nil
					},
					Final: func(c *txn.Ctx) error {
						c.Put(keyA, store.Int64Value(2))
						return nil
					},
				}, nil)
				if err := cc.RunInitial(in); err != nil {
					panic(err)
				}
				owner := parts[route(keyA)]
				if owner.Locks.TryAcquire(probe, keyA, lock.Shared) {
					if _, ok := owner.Store.Get(keyA); ok {
						visibleEarly++
					}
					owner.Locks.Release(probe, keyA)
				}
				if err := cc.RunFinal(in); err != nil {
					panic(err)
				}
			}
		})
		st := cc.Stats.Snapshot()
		t.Rows = append(t.Rows, []string{
			proto.String(),
			fmt.Sprintf("%d", st.TwoPCRounds),
			fmt.Sprintf("%d", st.PrepareRPCs),
			fmt.Sprintf("%d/%d", visibleEarly, n),
			ms(clk.Now() / time.Duration(n)),
		})
	}
	t.Notes = append(t.Notes,
		"MS-IA pays twice the commit machinery but exposes the initial commit to other partitions immediately; MS-SR defers all visibility (and every lock) to the final commit.")
	return t
}
