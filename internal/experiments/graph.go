package experiments

import (
	"fmt"
	"strings"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/node"
	"croesus/internal/scenario"
)

// depthGraph builds the linear inference graph of the given depth: an edge
// tiny-yolo front, depth-2 peer-tier yolo-320 middles, and a cloud yolo-416
// tail. Depth 1 is the edge node alone; depth 2 is exactly the default
// two-stage spec, so that row is the thresholded two-stage fleet.
func depthGraph(depth int) *node.GraphSpec {
	g := &node.GraphSpec{}
	for k := 0; k < depth; k++ {
		tier := "peer"
		switch {
		case k == 0:
			tier = "edge"
		case k == depth-1 && depth > 1:
			tier = "cloud"
		}
		g.Nodes = append(g.Nodes, node.GraphNodeSpec{Tier: tier})
	}
	return g
}

// GraphDepth sweeps the inference-graph depth from 1 to 4 sections under
// both multi-stage protocols on a sharded two-edge fleet. Every added
// section is one more boundary commit: MS-IA pays an atomic commitment at
// each boundary but releases its locks in between, while MS-SR holds the
// union of every section's locks from the first commit to the last — so
// its lock-wait share of the critical path grows with depth and the
// final-latency gap between the protocols widens. The per-section
// decomposition attributes the gap: MS-SR accumulates lock wait, MS-IA
// per-boundary 2PC time.
func GraphDepth(o Opts) Table {
	o = o.defaults()
	t := Table{
		ID:     "graph-depth",
		Title:  "Inference-graph depth: MS-IA vs MS-SR as sections multiply (4 cameras, 2 edge shards)",
		Header: []string{"protocol", "sections", "final p50 (ms)", "final p99 (ms)", "aborts", "2pc aborts", "apologies", "Σ sec lock (ms)", "Σ sec 2pc (ms)", "Σ sec txn (ms)", "deepest section (lock/2pc ms)"},
	}
	gap := map[int]time.Duration{}
	edges := []scenario.Edge{{ID: "west"}, {ID: "east"}}
	for _, depth := range []int{1, 2, 3, 4} {
		for _, proto := range []string{"MS-IA", "MS-SR"} {
			rep, err := scenario.Run(&scenario.Scenario{
				Seed: o.Seed,
				Topology: scenario.Topology{
					Edges:             edges,
					Cameras:           fleetCams(4, o.Frames, o.Seed, edges),
					Protocol:          strings.ToLower(proto),
					Partition:         scenario.PartitionEdge,
					CrossEdgeFraction: 0.25,
					OpCost:            scenario.Duration(200 * time.Microsecond),
					Graph:             depthGraph(depth),
					Batcher:           scenario.Batcher{MaxBatch: 8, SLO: scenario.Duration(80 * time.Millisecond)},
				},
			})
			if err != nil {
				panic("experiments: graph-depth: " + err.Error())
			}
			var sumLock, sumTwoPC, sumTxn time.Duration
			last := cluster.SectionReport{}
			for _, s := range rep.Sections {
				sumLock += s.MeanLockWait
				sumTwoPC += s.MeanTwoPC
				sumTxn += s.MeanTxn
				last = s
			}
			aborts := 0
			for _, cam := range rep.Cameras {
				aborts += cam.Summary.InitialAborts
			}
			if proto == "MS-IA" {
				gap[depth] -= rep.FinalP50
			} else {
				gap[depth] += rep.FinalP50
			}
			t.Rows = append(t.Rows, []string{
				proto,
				fmt.Sprintf("%d", depth),
				ms(rep.FinalP50),
				ms(rep.FinalP99),
				fmt.Sprintf("%d", aborts),
				fmt.Sprintf("%d", rep.TwoPC.Aborts),
				fmt.Sprintf("%d", rep.Apologies),
				ms(sumLock),
				ms(sumTwoPC),
				ms(sumTxn),
				fmt.Sprintf("%s/%s", ms(last.MeanLockWait), ms(last.MeanTwoPC)),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("MS-SR − MS-IA final p50 gap (ms): depth 1 %s, depth 2 %s, depth 3 %s, depth 4 %s — each section widens it",
			ms(gap[1]), ms(gap[2]), ms(gap[3]), ms(gap[4])),
		"the decomposition attributes the gap: MS-IA commits everything but pays an atomic commitment per boundary (Σ sec 2pc grows with depth), while MS-SR holds its locks across every boundary and sheds the conflicting work — its abort count grows with depth instead",
		"depth 2 is the default two-stage spec, which compiles to no graph block: the fleet thresholds frames into the shared batcher and reports initial/final commits, no per-section rows",
	)
	return t
}
