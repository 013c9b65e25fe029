package node

import (
	"fmt"
	"sort"
	"strings"

	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/txn"
)

// This file is the declarative face of the inference graph: the spec both
// deployments (cluster and tcpnet) and the scenario schema assemble
// core.Graph from. Validation lives here — with position-specific errors —
// so a bad graph is rejected identically whether it arrived from JSON, a
// flag, or Go code.

// Model names a graph node accepts. The empty string takes the tier
// default: tiny-yolo on edge, yolo-320 on peer, yolo-416 on cloud.
const (
	ModelTinyYOLO = "tiny-yolo"
	ModelYOLO320  = "yolo-320"
	ModelYOLO416  = "yolo-416"
	ModelYOLO608  = "yolo-608"
)

// SwitchBranchSpec routes to a strictly-later node (or "done") when the
// routing confidence falls inside [Lo, Hi].
type SwitchBranchSpec struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	To string  `json:"to"`
}

// GraphNodeSpec declares one graph node. Name defaults to "n<index>".
type GraphNodeSpec struct {
	Name  string `json:"name,omitempty"`
	Tier  string `json:"tier"`
	Model string `json:"model,omitempty"`
	// Speed divides the node model's inference latency; 0 takes the
	// hosting machine's speed (edge speed for edge/peer tiers, cloud
	// speed for cloud).
	Speed  float64            `json:"speed,omitempty"`
	Switch []SwitchBranchSpec `json:"switch,omitempty"`
}

// GraphSpec declares an inference graph: an ordered node list where node k
// owns transaction section k. Routing is Sequence (fall through) unless a
// node declares Switch branches.
type GraphSpec struct {
	Nodes []GraphNodeSpec `json:"nodes"`
}

// nodeName resolves the display name of node k.
func (g *GraphSpec) nodeName(k int) string {
	if g.Nodes[k].Name != "" {
		return g.Nodes[k].Name
	}
	return fmt.Sprintf("n%d", k)
}

func defaultModel(tier txn.Tier) string {
	switch tier {
	case txn.TierCloud:
		return ModelYOLO416
	case txn.TierPeer:
		return ModelYOLO320
	default:
		return ModelTinyYOLO
	}
}

func buildModel(name string, seed int64) (detect.Model, error) {
	switch name {
	case ModelTinyYOLO:
		return detect.TinyYOLOSim(seed), nil
	case ModelYOLO320:
		return detect.YOLOv3Sim(detect.YOLO320, seed), nil
	case ModelYOLO416:
		return detect.YOLOv3Sim(detect.YOLO416, seed), nil
	case ModelYOLO608:
		return detect.YOLOv3Sim(detect.YOLO608, seed), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want %s, %s, %s, or %s)",
			name, ModelTinyYOLO, ModelYOLO320, ModelYOLO416, ModelYOLO608)
	}
}

// Validate checks the graph against the fleet shape (nEdges edge nodes),
// reporting the first problem with its position. It rejects unknown tiers,
// unknown models, duplicate node names, routing cycles (a switch target
// that is not strictly later), and switches whose branches don't cover
// [0, 1].
func (g *GraphSpec) Validate(nEdges int) error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("graph: needs at least one node")
	}
	byName := make(map[string]int, len(g.Nodes))
	tiers := make([]txn.Tier, len(g.Nodes))
	for k := range g.Nodes {
		ns := &g.Nodes[k]
		name := g.nodeName(k)
		tier, err := txn.ParseTier(ns.Tier)
		if err != nil {
			return fmt.Errorf("graph: node %d (%q): unknown tier %q (want edge, peer, or cloud)", k, name, ns.Tier)
		}
		tiers[k] = tier
		if k == 0 && tier != txn.TierEdge {
			return fmt.Errorf("graph: node 0 (%q): first node must be on the edge tier, got %q", name, ns.Tier)
		}
		if tier == txn.TierPeer && nEdges < 2 {
			return fmt.Errorf("graph: node %d (%q): peer tier needs at least 2 edges in the fleet, got %d", k, name, nEdges)
		}
		if first, dup := byName[name]; dup {
			return fmt.Errorf("graph: node %d: duplicate node name %q (first used by node %d)", k, name, first)
		}
		byName[name] = k
		if name == core.DoneTarget {
			return fmt.Errorf("graph: node %d: %q is reserved for switch termination and cannot name a node", k, name)
		}
		if ns.Speed < 0 {
			return fmt.Errorf("graph: node %d (%q): speed must be ≥ 0, got %g", k, name, ns.Speed)
		}
		model := ns.Model
		if model == "" {
			model = defaultModel(tier)
		}
		if _, err := buildModel(model, 1); err != nil {
			return fmt.Errorf("graph: node %d (%q): %v", k, name, err)
		}
	}
	for k := range g.Nodes {
		if err := g.validateSwitch(k, byName); err != nil {
			return err
		}
	}
	return nil
}

// validateSwitch checks node k's branches: targets must be strictly later
// (the graph is a DAG walked left to right, so an earlier or same target is
// a cycle) or "done", ranges must be sane, and their union must cover
// [0, 1] so every confidence has a route.
func (g *GraphSpec) validateSwitch(k int, byName map[string]int) error {
	branches := g.Nodes[k].Switch
	if len(branches) == 0 {
		return nil
	}
	name := g.nodeName(k)
	for b, br := range branches {
		if br.Lo > br.Hi {
			return fmt.Errorf("graph: node %d (%q): switch branch %d has lo %.2f > hi %.2f", k, name, b, br.Lo, br.Hi)
		}
		if br.Lo < 0 || br.Hi > 1 {
			return fmt.Errorf("graph: node %d (%q): switch branch %d range [%.2f, %.2f] must lie in [0, 1]", k, name, b, br.Lo, br.Hi)
		}
		if br.To == core.DoneTarget {
			continue
		}
		to, ok := byName[br.To]
		if !ok {
			return fmt.Errorf("graph: node %d (%q): switch branch %d routes to unknown node %q", k, name, b, br.To)
		}
		if to <= k {
			return fmt.Errorf("graph: node %d (%q): switch branch %d routes to %q (node %d), which is not a later node — cycles are not allowed", k, name, b, br.To, to)
		}
	}
	// Coverage: sort by Lo and sweep; any gap leaves a confidence with no
	// route.
	sorted := append([]SwitchBranchSpec(nil), branches...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	covered := 0.0
	const eps = 1e-9
	for _, br := range sorted {
		if br.Lo > covered+eps {
			return fmt.Errorf("graph: node %d (%q): switch branches leave [%.2f, %.2f) of the confidence range uncovered", k, name, covered, br.Lo)
		}
		if br.Hi > covered {
			covered = br.Hi
		}
	}
	if covered < 1-eps {
		return fmt.Errorf("graph: node %d (%q): switch branches leave [%.2f, 1.00] of the confidence range uncovered", k, name, covered)
	}
	return nil
}

// isDefault reports whether the spec is exactly the two-stage pipeline a
// fleet runs without a graph block: a default edge node falling through to
// a default cloud node.
func (g *GraphSpec) isDefault() bool {
	if len(g.Nodes) != 2 {
		return false
	}
	for k, tier := range []txn.Tier{txn.TierEdge, txn.TierCloud} {
		ns := &g.Nodes[k]
		if ns.Tier != tier.String() || ns.Speed != 0 || len(ns.Switch) != 0 {
			return false
		}
		if ns.Model != "" && ns.Model != defaultModel(tier) {
			return false
		}
	}
	return true
}

// Compile resolves the spec into the executable core graph, with models
// seeded like the fleet's detectors. Call Validate first; Compile repeats
// it defensively. The default two-stage spec compiles to nil — declaring
// it is declaring no graph, and the deployment runs its built-in two-stage
// graph (bandwidth thresholding into the shared cloud validator).
func (g *GraphSpec) Compile(nEdges int, seed int64) (*core.Graph, error) {
	if err := g.Validate(nEdges); err != nil {
		return nil, err
	}
	if g.isDefault() {
		return nil, nil
	}
	out := &core.Graph{Nodes: make([]core.GraphNode, len(g.Nodes))}
	for k := range g.Nodes {
		ns := &g.Nodes[k]
		tier, _ := txn.ParseTier(ns.Tier)
		modelName := ns.Model
		if modelName == "" {
			modelName = defaultModel(tier)
		}
		model, err := buildModel(modelName, seed)
		if err != nil {
			return nil, fmt.Errorf("graph: node %d (%q): %v", k, g.nodeName(k), err)
		}
		node := core.GraphNode{
			Name:  g.nodeName(k),
			Tier:  tier,
			Model: model,
			Speed: ns.Speed,
		}
		for _, br := range ns.Switch {
			node.Switch = append(node.Switch, core.SwitchBranch{Lo: br.Lo, Hi: br.Hi, To: br.To})
		}
		out.Nodes[k] = node
	}
	return out, nil
}

// Plan renders the resolved section plan — one line per node with its
// tier, model, and routing — for croesus-cluster -validate.
func (g *GraphSpec) Plan() string {
	var b strings.Builder
	for k := range g.Nodes {
		ns := &g.Nodes[k]
		tier, err := txn.ParseTier(ns.Tier)
		tierName := ns.Tier
		if err == nil {
			tierName = tier.String()
		}
		model := ns.Model
		if model == "" && err == nil {
			model = defaultModel(tier)
		}
		fmt.Fprintf(&b, "  section %d: %-12s tier=%-5s model=%s", k, g.nodeName(k), tierName, model)
		if ns.Speed > 0 {
			fmt.Fprintf(&b, " speed=%.2f", ns.Speed)
		}
		switch {
		case len(ns.Switch) > 0:
			parts := make([]string, 0, len(ns.Switch))
			for _, br := range ns.Switch {
				parts = append(parts, fmt.Sprintf("[%.2f,%.2f]→%s", br.Lo, br.Hi, br.To))
			}
			fmt.Fprintf(&b, "  switch{%s}", strings.Join(parts, " "))
		case k+1 < len(g.Nodes):
			fmt.Fprintf(&b, "  → %s", g.nodeName(k+1))
		default:
			b.WriteString("  → done")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
