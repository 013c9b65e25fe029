package core

import (
	"time"

	"croesus/internal/detect"
	"croesus/internal/netsim"
	"croesus/internal/obs"
	"croesus/internal/transport"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// This file is the frame executor. Every pipeline walks a Graph: an ordered
// list of model nodes, each pinned to a placement tier; node k's labels
// trigger section k of every transaction the frame opened, so each node is
// one boundary commit. Routing between nodes is Sequence (fall through to
// the next node) or a confidence-threshold Switch; whichever nodes the
// route skips still commit their sections locally with the labels assumed
// correct, so an initially-committed transaction always reaches its last
// boundary — the multi-stage guarantee of §4. The paper's two-stage
// pattern (Figure 1) and its two baselines are the shapes of Mode.Graph;
// the generalized m-stage model of §3.5 is a deeper graph, with or without
// a TxnSource.

// DoneTarget is the Switch destination that ends the route early.
const DoneTarget = "done"

// SwitchBranch routes to a strictly-later node (or DoneTarget) when the
// frame's routing confidence falls inside [Lo, Hi]. Branches of one node
// must cover [0, 1]; the first matching branch wins.
type SwitchBranch struct {
	Lo, Hi float64
	To     string
}

// GraphNode is one model in the graph, pinned to a tier. The frame ships
// to the node over the tier's transport path (nothing for edge — the node
// is co-located with the hub; the peer mesh for peer; the uplink for
// cloud), the model refines the labels, and the matching transaction
// section commits.
type GraphNode struct {
	Name string
	Tier txn.Tier
	// Model is the node's detector. Nil takes the tier default:
	// Config.CloudModel on the cloud tier, Config.EdgeModel elsewhere.
	Model detect.Model
	// Speed divides the model's inference latency; 0 takes the tier
	// default (Config.EdgeSpeed for edge and peer, CloudSpeed for cloud).
	Speed float64
	// Switch, when non-empty, routes by confidence after this node runs.
	// Empty means Sequence: fall through to the next node in order.
	Switch []SwitchBranch
	// Validator, when set, runs the node off the hub in place of the
	// in-pipeline model call: it owns the hop to the node, the inference,
	// and the label return. This is the one seam deployments plug into —
	// the single-edge DirectValidator, the fleet's shared SLO-aware
	// batcher, the TCP edge server's cloud socket. A request it sheds or
	// loses commits the section with the labels assumed correct:
	// availability over freshness, per boundary.
	Validator Validator
}

// Graph is an ordered inference graph; node k owns transaction section k.
type Graph struct {
	Nodes []GraphNode
}

// Graph returns the mode's built-in two-section shape, with cloud as the
// validator of its cloud-tier node. Croesus forwards a frame to the cloud
// when its least confident visible detection is at or below thetaU (the
// validate interval of §3.4; detections below θL were already discarded);
// edge-only ends every route at the edge node; cloud-only puts node 0 on
// the cloud, so the initial commit already carries the full model's labels.
func (m Mode) Graph(thetaU float64, cloud Validator) *Graph {
	switch m {
	case ModeEdgeOnly:
		return &Graph{Nodes: []GraphNode{
			{Name: "edge", Tier: txn.TierEdge, Switch: []SwitchBranch{{Lo: 0, Hi: 1, To: DoneTarget}}},
			{Name: "final", Tier: txn.TierEdge},
		}}
	case ModeCloudOnly:
		return &Graph{Nodes: []GraphNode{
			{Name: "cloud", Tier: txn.TierCloud, Validator: cloud, Switch: []SwitchBranch{{Lo: 0, Hi: 1, To: DoneTarget}}},
			{Name: "final", Tier: txn.TierCloud, Validator: cloud},
		}}
	default:
		return &Graph{Nodes: []GraphNode{
			{Name: "edge", Tier: txn.TierEdge, Switch: []SwitchBranch{
				{Lo: 0, Hi: thetaU, To: "cloud"},
				{Lo: thetaU, Hi: 1, To: DoneTarget},
			}},
			{Name: "cloud", Tier: txn.TierCloud, Validator: cloud},
		}}
	}
}

// SectionPlan returns the name and tier of each node as transaction
// section prototypes — what a TxnSource needs to shape its transactions to
// the graph (WorkloadSource.SetPlan).
func (g *Graph) SectionPlan() []txn.SectionSpec {
	plan := make([]txn.SectionSpec, len(g.Nodes))
	for i := range g.Nodes {
		plan[i] = txn.SectionSpec{Name: g.Nodes[i].Name, Tier: g.Nodes[i].Tier}
	}
	return plan
}

// index returns the position of the named node, or -1.
func (g *Graph) index(name string) int {
	for i := range g.Nodes {
		if g.Nodes[i].Name == name {
			return i
		}
	}
	return -1
}

// next returns the node the route visits after node k produced dets, or -1
// when the route ends. A Switch tests the least confident detection; a
// frame with none ends the route — a clean frame needs no deeper model.
func (g *Graph) next(k int, dets []detect.Detection) int {
	nd := &g.Nodes[k]
	if len(nd.Switch) == 0 {
		if k+1 < len(g.Nodes) {
			return k + 1
		}
		return -1
	}
	if len(dets) == 0 {
		return -1
	}
	conf := dets[0].Confidence
	for _, d := range dets[1:] {
		if d.Confidence < conf {
			conf = d.Confidence
		}
	}
	for _, br := range nd.Switch {
		if conf < br.Lo || conf > br.Hi {
			continue
		}
		if br.To == DoneTarget {
			return -1
		}
		return g.index(br.To)
	}
	return -1
}

// pendingTxn tracks a triggered transaction awaiting its later sections.
// refIdx is its trigger's position in the frame's reference label set.
type pendingTxn struct {
	inst    *txn.Instance
	trigger detect.Detection
	refIdx  int
}

// walk executes one frame over the graph. Node 0's labels pass input
// processing (smoothing, MinConfidence, the θL discard), commit section 0
// and answer the client; each later node the route visits refines the
// labels, matches them against the frame's reference set, and commits its
// section; route-skipped sections commit locally, in order.
func (p *Pipeline) walk(f *video.Frame, ctx obs.SpanContext) FrameOutcome {
	cfg := p.cfg
	clk := cfg.Clock
	g := cfg.Graph
	n := len(g.Nodes)
	out := FrameOutcome{
		FrameIndex:  f.Index,
		CapturedAt:  f.At,
		SentToCloud: g.Nodes[0].Tier == txn.TierCloud,
		Sections:    make([]SectionOutcome, n),
	}

	// The client ships the frame to the edge hub.
	t0 := clk.Now()
	cfg.ClientEdge.Send(clk, f.SizeBytes)
	tIngest := clk.Now()
	out.Breakdown.ClientEdge = tIngest - t0
	cfg.Obs.SpanCtx(ctx, obs.SpanFrameIngest, p.tags, t0, tIngest)

	dets, _ := p.runNode(f, 0, ctx, nil, &out)
	if cfg.Smoother != nil {
		dets = cfg.Smoother.Apply(f.Index, dets)
	}
	dets = filterConfidence(dets, cfg.MinConfidence)
	out.EdgeDetections = dets

	// Bandwidth thresholding (§3.4) guards what becomes visible: below θL
	// is discarded. Forwarding is the graph's business.
	visible := make([]detect.Detection, 0, len(dets))
	for _, d := range dets {
		if d.Confidence < cfg.ThetaL {
			out.DiscardedDetections++
			continue
		}
		visible = append(visible, d)
	}
	out.InitialVisible = visible

	// Section 0: the boundary commit behind the client's immediate answer.
	pending := p.runFirstSection(f, ctx, visible, &out)
	cfg.ClientEdge.Send(clk, netsim.LabelReturnBytes)
	out.InitialLatency = clk.Now() - f.At
	out.Sections[0].Latency = out.InitialLatency
	next := p.route(0, visible, &out)
	if cfg.OnInitial != nil {
		// The hook gets a snapshot: handing out &out would move every
		// frame's outcome to the heap, hook or no hook.
		initial := out
		cfg.OnInitial(f, &initial)
	}

	// Walk the route. ref is the reference label set pending transactions
	// index into; it grows by one entry per MatchNew transaction so later
	// nodes re-match against everything already known. current is what the
	// client renders after the latest boundary.
	ref := visible
	current := visible
	for at := 0; at < n-1; {
		// Boundaries the route jumps over — or, once it has ended, every
		// remaining one (the §3.5 early stop) — commit locally with the
		// labels assumed correct, in order: section k+1 cannot run before
		// section k.
		k := next
		if k < 0 {
			k = n
		}
		for s := at + 1; s < k; s++ {
			pending, ref = p.runSection(f, ctx, s, pending, ref, nil, &out)
			out.Sections[s].Latency = clk.Now() - f.At
		}
		if k == n {
			break
		}

		// The refined labels correct the reference set and commit the
		// node's section. A lost or shed node commits with the labels
		// assumed correct instead.
		var matches []LabelMatch
		if nodeDets, ok := p.runNode(f, k, ctx, current, &out); ok {
			nodeDets = filterConfidence(nodeDets, cfg.MinConfidence)
			matches = MatchLabels(ref, nodeDets, cfg.OverlapMin)
			if cfg.Smoother != nil && g.Nodes[k].Tier == txn.TierCloud {
				cfg.Smoother.Learn(f.Index, matches, ref)
			}
			current = nodeDets
		}
		pending, ref = p.runSection(f, ctx, k, pending, ref, matches, &out)

		// Boundary commit: the refreshed labels reach the client.
		cfg.ClientEdge.Send(clk, netsim.LabelReturnBytes)
		out.Sections[k].Latency = clk.Now() - f.At

		at = k
		next = p.route(k, current, &out)
	}

	out.FinalVisible = current
	out.FinalLatency = clk.Now() - f.At
	return out
}

// route picks the node after k and marks the frame as cloud-bound when it
// is on the cloud tier.
func (p *Pipeline) route(k int, dets []detect.Detection, out *FrameOutcome) int {
	g := p.cfg.Graph
	next := g.next(k, dets)
	if next >= 0 && g.Nodes[next].Tier == txn.TierCloud {
		out.SentToCloud = true
	}
	return next
}

// runNode produces node k's labels — through its Validator when it has
// one, else by shipping the frame to the node's tier and running its model
// under the tier's compute slots — and charges the time to the frame's
// breakdown by tier: hub compute for edge nodes, the off-hub leg (also
// recorded on the section) for peer and cloud nodes. visible is what the
// client currently renders, for validators that prioritize by it. ok is
// false when a Validator shed or lost the request.
func (p *Pipeline) runNode(f *video.Frame, k int, ctx obs.SpanContext, visible []detect.Detection, out *FrameOutcome) (dets []detect.Detection, ok bool) {
	cfg := &p.cfg
	nd := &cfg.Graph.Nodes[k]
	sec := &out.Sections[k]
	b := &out.Breakdown
	if nd.Validator == nil {
		hop := p.hopTo(f, k, ctx)
		var wait, lat time.Duration
		dets, wait, lat = p.detectNode(f, k, ctx)
		if nd.Tier == txn.TierEdge {
			b.ComputeWait += wait
			b.EdgeDetect += lat
		} else {
			sec.Hop, sec.Detect = hop, lat
			b.EdgeCloud += hop
			b.CloudQueue += wait
			b.CloudDetect += lat
		}
		return dets, true
	}
	clk := cfg.Clock
	t0 := clk.Now()
	res := nd.Validator.Validate(ValidationRequest{
		Frame:   f,
		Edge:    visible,
		Margin:  ValidationMargin(visible, cfg.ThetaL, cfg.ThetaU),
		Section: k,
		Trace:   ctx,
	})
	sec.Hop, sec.Detect = res.EdgeCloud, res.CloudDetect
	b.EdgeCloud += res.EdgeCloud
	b.CloudQueue += res.CloudQueue
	b.CloudDetect += res.CloudDetect
	b.CloudReturn += res.CloudReturn
	cfg.Obs.SpanCtx(ctx, obs.SpanUplink, p.tags, t0, t0+res.EdgeCloud)
	cfg.Obs.SpanCtx(ctx, obs.SpanCloudValidate, p.tags, t0, clk.Now())
	switch res.Status {
	case ValidationShed:
		out.Shed = true
	case ValidationLost:
		out.CloudLost = true
	}
	return res.Cloud, res.Status == Validated
}

// model resolves a node's detector: its own, or the tier default.
func (p *Pipeline) model(nd *GraphNode) detect.Model {
	switch {
	case nd.Model != nil:
		return nd.Model
	case nd.Tier == txn.TierCloud:
		return p.cfg.CloudModel
	default:
		return p.cfg.EdgeModel
	}
}

// detectNode runs node k's model under its tier's compute slots: the edge
// pool for edge nodes, the cloud slots for cloud nodes, uncontended for
// peer nodes (the peer edge's own machine). Returns detections, slot
// wait, and inference time.
func (p *Pipeline) detectNode(f *video.Frame, k int, ctx obs.SpanContext) ([]detect.Detection, time.Duration, time.Duration) {
	cfg := p.cfg
	clk := cfg.Clock
	nd := &cfg.Graph.Nodes[k]
	speed := nd.Speed
	if speed <= 0 {
		if nd.Tier == txn.TierCloud {
			speed = cfg.CloudSpeed
		} else {
			speed = cfg.EdgeSpeed
		}
	}
	var sem *vclock.Semaphore
	switch nd.Tier {
	case txn.TierEdge:
		sem = p.edgeSlots
	case txn.TierCloud:
		sem = p.cloudSlot
	}
	tw := clk.Now()
	if sem == p.edgeSlots {
		p.queueDepth.Add(1)
	}
	if sem != nil {
		sem.Acquire()
	}
	if sem == p.edgeSlots {
		p.queueDepth.Add(-1)
	}
	start := clk.Now()
	res := p.model(nd).Detect(f)
	clk.Sleep(scale(res.Latency, speed))
	if sem != nil {
		sem.Release()
	}
	end := clk.Now()
	if start > tw {
		cfg.Obs.SpanCtx(ctx, obs.SpanPoolWait, p.tags, tw, start)
	}
	// The hub's own first-pass model is the paper's edge detection; every
	// other in-pipeline node is a graph refinement.
	if k == 0 && nd.Tier == txn.TierEdge {
		cfg.Obs.SpanCtx(ctx, obs.SpanEdgeDetect, p.tags, start, end)
	} else {
		cfg.Obs.SpanCtx(ctx, obs.SpanNodeDetect, p.sec[k].tags, start, end)
	}
	return res.Detections, start - tw, end - start
}

// hopTo charges shipping the frame from the edge hub into node k's tier:
// nothing for edge nodes, the peer mesh for peer nodes, the uplink for
// cloud nodes. Preprocessing applies on every off-hub hop.
func (p *Pipeline) hopTo(f *video.Frame, k int, ctx obs.SpanContext) time.Duration {
	cfg := p.cfg
	clk := cfg.Clock
	var path transport.Path
	switch cfg.Graph.Nodes[k].Tier {
	case txn.TierCloud:
		path = cfg.EdgeCloud
	case txn.TierPeer:
		path = cfg.PeerPath
		if path == nil {
			path = cfg.EdgeCloud
		}
	default:
		return 0
	}
	t0 := clk.Now()
	bytes, prepCost := cfg.Preproc.Process(f.SizeBytes)
	clk.Sleep(scale(prepCost, cfg.EdgeSpeed))
	path.Send(clk, bytes)
	end := clk.Now()
	cfg.Obs.SpanCtx(ctx, obs.SpanUplink, p.sec[k].tags, t0, end)
	return end - t0
}

// runFirstSection triggers a transaction per visible detection and runs
// its section 0.
func (p *Pipeline) runFirstSection(f *video.Frame, ctx obs.SpanContext, dets []detect.Detection, out *FrameOutcome) []pendingTxn {
	if p.cfg.Source == nil {
		return nil
	}
	clk := p.cfg.Clock
	sec := &out.Sections[0]
	start := clk.Now()
	pending := make([]pendingTxn, 0, len(dets))
	for i, d := range dets {
		t := p.cfg.Source.TxnFor(f.Index, d)
		if t == nil {
			continue
		}
		inst := p.cfg.Mgr.NewInstance(t, InitialInput{FrameIndex: f.Index, Trigger: d, Labels: dets})
		inst.Trace = ctx
		err := p.cfg.CC.RunSection(inst, 0)
		p.harvestTiming(inst, out, sec)
		if err != nil {
			out.InitialAborts++
			continue
		}
		pending = append(pending, pendingTxn{inst: inst, trigger: d, refIdx: i})
	}
	out.TxnsTriggered += len(pending)
	end := clk.Now()
	sec.Txn = end - start
	out.Breakdown.InitialTxn = end - start
	if len(dets) > 0 {
		p.cfg.Obs.SpanCtx(ctx, obs.SpanInitialTxn, p.tags, start, end)
	}
	p.secCommit(0, int64(len(pending)))
	return pending
}

// runSection runs section k (k ≥ 1) of every pending transaction with the
// node's matches (nil matches ⇒ labels assumed correct), plus a full
// catch-up run — sections 0..k — for labels first seen at this node
// (MatchNew, §3.3). While sections remain, fresh transactions join pending
// and their trigger joins the reference set, so later nodes match against
// them instead of re-raising them. Returns the updated pending and
// reference sets.
func (p *Pipeline) runSection(f *video.Frame, ctx obs.SpanContext, k int, pending []pendingTxn, ref []detect.Detection, matches []LabelMatch, out *FrameOutcome) ([]pendingTxn, []detect.Detection) {
	if p.cfg.Source == nil {
		return pending, ref
	}
	clk := p.cfg.Clock
	sec := &out.Sections[k]
	last := len(p.cfg.Graph.Nodes) - 1
	start := clk.Now()
	committed := int64(0)
	// run executes section j of one instance with its input.
	run := func(inst *txn.Instance, j int, fin FinalInput) {
		inst.SetSectionIn(j, fin)
		if err := p.cfg.CC.RunSection(inst, j); err != nil && err != txn.ErrRetracted {
			out.FinalErrors++
		} else if err == nil && j == k {
			committed++
		}
		p.harvestTiming(inst, out, sec)
		if j == last {
			out.Apologies = append(out.Apologies, inst.TakeApologies()...)
		}
	}
	for _, pt := range pending {
		// Matches are few per frame, so a backward scan (last entry wins)
		// beats building a map.
		m := LabelMatch{Case: MatchAssumed, EdgeIdx: pt.refIdx}
		for i := len(matches) - 1; i >= 0; i-- {
			if matches[i].EdgeIdx == pt.refIdx {
				m = matches[i]
				break
			}
		}
		fin := FinalInput{FrameIndex: f.Index, Case: m.Case, Edge: pt.trigger, Cloud: m.Cloud}
		if fin.Corrected() {
			out.Corrections++
		}
		run(pt.inst, k, fin)
	}
	// Labels every earlier node missed: trigger now and catch up through
	// section k, so the transaction is level with the rest of the frame.
	for _, m := range matches {
		if m.Case != MatchNew {
			continue
		}
		t := p.cfg.Source.TxnFor(f.Index, m.Cloud)
		if t == nil {
			continue
		}
		inst := p.cfg.Mgr.NewInstance(t, InitialInput{FrameIndex: f.Index, Trigger: m.Cloud})
		inst.Trace = ctx
		err := p.cfg.CC.RunSection(inst, 0)
		p.harvestTiming(inst, out, sec)
		if err != nil {
			out.InitialAborts++
			continue
		}
		out.TxnsTriggered++
		out.Corrections++
		for j := 1; j < k; j++ {
			run(inst, j, FinalInput{FrameIndex: f.Index, Case: MatchAssumed})
		}
		run(inst, k, FinalInput{FrameIndex: f.Index, Case: MatchNew, Cloud: m.Cloud})
		if k < last {
			ref = append(ref, m.Cloud)
			pending = append(pending, pendingTxn{inst: inst, trigger: m.Cloud, refIdx: len(ref) - 1})
		}
	}
	end := clk.Now()
	sec.Txn += end - start
	out.Breakdown.FinalTxn += end - start
	if len(ref) > 0 || len(matches) > 0 {
		name := obs.SpanSectionTxn
		if k == last {
			name = obs.SpanFinalTxn
		}
		p.cfg.Obs.SpanCtx(ctx, name, p.sec[k].tags, start, end)
	}
	p.secCommit(k, committed)
	return pending, ref
}

// harvestTiming folds an instance's instrumented lock-wait and 2PC time
// (accumulated by the CC protocol while its sections ran on this frame's
// goroutine) into both the frame breakdown and the section's own
// decomposition.
func (p *Pipeline) harvestTiming(inst *txn.Instance, out *FrameOutcome, sec *SectionOutcome) {
	lw, tp := inst.TakeTiming()
	out.Breakdown.LockWait += lw
	out.Breakdown.TwoPC += tp
	sec.LockWait += lw
	sec.TwoPC += tp
}

// secCommit bumps section k's boundary-commit counter.
func (p *Pipeline) secCommit(k int, n int64) {
	if n > 0 {
		p.sec[k].commits.Add(n)
	}
}
