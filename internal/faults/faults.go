// Package faults injects deterministic failures into a sharded Croesus
// fleet and drives the WAL-backed recovery that survives them. The
// Injector's verbs are what a timeline player calls at each fault's
// instant: Crash fail-stops an edge, Restart recovers it from its log,
// SetLink severs or heals an inter-edge peer path, and Arm sets a trigger
// that crashes an edge at a scripted instant inside a two-phase commit (a
// participant right after its yes vote; the coordinator after collecting
// votes but before its decision is durable; the coordinator after the
// durable decision but before delivery). On the fleet's virtual clock a
// faulty run is exactly as deterministic as a healthy one: same seed, same
// timeline, byte-identical report.
//
// The Injector implements twopc.FaultOracle (the protocol consults it
// before trusting a partition), executes the state transitions, and
// performs recovery. A crashed edge loses its volatile state — lock grants,
// staged 2PC blocks, uncommitted eager writes; what survives is its
// write-ahead log. Restart replays the log with Partition.Recover (charging
// a per-record replay cost in virtual time), reinstalls the committed
// state, and resolves each prepared-but-undecided commit round by inquiring
// its coordinator: a durable commit decision for that exact (txn, round)
// applies the staged writes (minus any a later record superseded), a dead
// or local coordinator's log without one means presumed abort, and a round
// whose coordinator is live but undecided — or unreachable behind a
// partitioned peer link — stays staged until a later sweep, the peer's
// restart, or the end-of-run repair resolves it.
package faults

import (
	"fmt"
	"sync"
	"time"

	"croesus/internal/obs"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/wal"
)

// TwoPCCrash fail-stops Edge at a scripted instant inside an atomic
// commitment round: the Round-th time (1-based; 0 means first) Edge reaches
// Point after the trigger is armed. For PointParticipantPrepared the edge
// crashes as a participant that just voted yes; for the other points it
// crashes as the coordinator. A positive RestartAfter recovers the edge
// that long after the crash.
type TwoPCCrash struct {
	Edge         int
	Point        twopc.TwoPCPoint
	Round        int
	RestartAfter time.Duration
}

// trigger is an armed TwoPCCrash and the occurrences of its point at its
// edge since it was armed.
type trigger struct {
	TwoPCCrash
	seen int
}

// Counters tallies every fault injected and every recovery action taken.
type Counters struct {
	// Crashes and Restarts count fail-stop events and completed
	// recoveries (the end-of-run repair counts too, so Restarts ==
	// Crashes after a drained run).
	Crashes  int64
	Restarts int64
	// LinkOutages counts link-partition events.
	LinkOutages int64
	// TxnsFailed counts transactions aborted or retracted because a fault
	// interrupted them — the availability cost of the schedule.
	TxnsFailed int64
	// InDoubt counts prepared-but-undecided commit-round blocks that
	// needed resolution — per (txn, round), so one transaction can
	// contribute two; InDoubtCommitted of them had a durable commit
	// decision at the coordinator, InDoubtAborted were presumed abort.
	InDoubt          int64
	InDoubtCommitted int64
	InDoubtAborted   int64
	// ReplayedRecords is the total WAL records replayed by recoveries;
	// TornTails counts truncated torn log tails.
	ReplayedRecords int64
	TornTails       int64
	// Checkpoints counts completed WAL checkpoints (log rewrites that
	// bound replay time); CheckpointsSkipped counts attempts deferred
	// because the edge was down or a live 2PC round was staged.
	Checkpoints        int64
	CheckpointsSkipped int64
}

// Report is the fault subsystem's contribution to a fleet report:
// counters plus recovery-time percentiles (crash to recovered, including
// the outage and the replay cost).
type Report struct {
	Counters
	RecoveryP50 time.Duration
	RecoveryP95 time.Duration
	RecoveryP99 time.Duration
}

// Injector crashes, recovers and partitions a fleet's partitions and peer
// links. Construct with NewInjector, call its verbs while the fleet runs
// and Finish after it drains. It implements twopc.FaultOracle.
type Injector struct {
	clk        vclock.Clock
	replayCost time.Duration
	parts      []*twopc.Partition
	links      [][]transport.Path // links[i][j]: edge i's one-way path to edge j

	// Observability hooks, wired by Bind (nil without it): obs carries the
	// wal.replay span each recovery emits; edgeTags[i] is the pre-rendered
	// tag string for edge i's spans.
	obs      *obs.Obs
	edgeTags []string

	mu         sync.Mutex
	down       []bool
	recovering []bool
	epoch      []int
	crashedAt  []time.Duration
	armed      []trigger
	counters   Counters
	recovery   obs.Histogram
}

// NewInjector builds the injector for a fleet. replayCost is the virtual
// time a recovery charges per WAL record replayed (0 means 5µs) — what
// makes recovery time a function of how much the edge had committed.
// links[i][j] is edge i's one-way link to edge j (nil on the diagonal).
// Every partition must already log to its WAL (Partition.OpenWAL), which
// is what it recovers from.
func NewInjector(clk vclock.Clock, replayCost time.Duration, parts []*twopc.Partition, links [][]transport.Path) (*Injector, error) {
	n := len(parts)
	if n == 0 {
		return nil, fmt.Errorf("faults: no partitions")
	}
	if len(links) != n {
		return nil, fmt.Errorf("faults: %d partitions but %d link rows", n, len(links))
	}
	for i, p := range parts {
		if !p.Durable() {
			return nil, fmt.Errorf("faults: partition %d has no WAL — crashes would lose committed state", i)
		}
	}
	if replayCost == 0 {
		replayCost = 5 * time.Microsecond
	}
	return &Injector{
		clk:        clk,
		replayCost: replayCost,
		parts:      parts,
		links:      links,
		down:       make([]bool, n),
		recovering: make([]bool, n),
		epoch:      make([]int, n),
		crashedAt:  make([]time.Duration, n),
	}, nil
}

// Bind attaches the observability layer: every recovery emits a
// wal.replay span tagged with edgeTags[e], and the fault counters are
// pulled into the registry at scrape time (the report keeps its own
// Counters snapshot — the registry mirrors it, never replaces it). Call
// before the fleet runs.
func (i *Injector) Bind(o *obs.Obs, edgeTags []string) {
	if o == nil {
		return
	}
	i.obs = o
	i.edgeTags = edgeTags
	crashes := o.Counter(obs.MetricFaultCrashes, "")
	recoveries := o.Counter(obs.MetricFaultRecover, "")
	replayed := o.Counter(obs.MetricWALReplayed, "")
	o.Registry().RegisterCollector(func(*obs.Registry) {
		c := i.Counters()
		crashes.Add(c.Crashes - crashes.Value())
		recoveries.Add(c.Restarts - recoveries.Value())
		replayed.Add(c.ReplayedRecords - replayed.Value())
	})
}

func (i *Injector) edgeTag(e int) string {
	if e < len(i.edgeTags) {
		return i.edgeTags[e]
	}
	return ""
}

// Finish repairs the fleet after the run drains: every edge still down is
// recovered from its log (no replay time is charged — the clock's driver
// cannot sleep), and any staged block still waiting on a crashed
// coordinator is resolved against that coordinator's recovered decisions.
// Reports therefore always describe a healed, fully-resolved fleet.
func (i *Injector) Finish() {
	for e := range i.parts {
		if i.Down(e) {
			i.restart(e, false)
		}
	}
	for pi, p := range i.parts {
		for _, coord := range p.StagedCoords() {
			for _, cr := range p.StagedBy(coord) {
				commit, _ := i.parts[coord].Decision(cr)
				i.resolveStaged(pi, cr, commit)
			}
		}
	}
}

// Checkpoint rewrites edge e's write-ahead log as a compact snapshot
// (twopc.Partition.Checkpoint), bounding how much a later crash replays. A
// checkpoint of a down or mid-recovery edge — or one with a live 2PC round
// staged — is skipped and counted, not an error: the fleet retries on its
// next checkpoint tick. Returns whether the checkpoint ran.
func (i *Injector) Checkpoint(e int) bool {
	i.mu.Lock()
	busy := i.down[e] || i.recovering[e]
	i.mu.Unlock()
	if busy {
		i.mu.Lock()
		i.counters.CheckpointsSkipped++
		i.mu.Unlock()
		return false
	}
	_, ok, err := i.parts[e].Checkpoint()
	if err != nil {
		panic(fmt.Sprintf("faults: checkpointing edge %d: %v", e, err))
	}
	i.mu.Lock()
	if ok {
		i.counters.Checkpoints++
	} else {
		i.counters.CheckpointsSkipped++
	}
	i.mu.Unlock()
	return ok
}

// Down implements twopc.FaultOracle.
func (i *Injector) Down(pi int) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.down[pi]
}

// Epoch implements twopc.FaultOracle.
func (i *Injector) Epoch(pi int) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.epoch[pi]
}

// TxnFault implements twopc.FaultOracle.
func (i *Injector) TxnFault() {
	i.mu.Lock()
	i.counters.TxnsFailed++
	i.mu.Unlock()
}

// Arm sets a 2PC crash trigger: from now on, the Round-th time t.Edge
// reaches t.Point, the edge fail-stops there.
func (i *Injector) Arm(t TwoPCCrash) {
	i.mu.Lock()
	i.armed = append(i.armed, trigger{TwoPCCrash: t})
	i.mu.Unlock()
}

// At2PCPoint implements twopc.FaultOracle: it counts the instant against
// the armed triggers and, on a match, fail-stops the acting edge (part)
// right there — synchronously, on the transaction's own goroutine, which
// is what makes the crash land at exactly the scripted protocol step on
// every run.
func (i *Injector) At2PCPoint(coord, part int, point twopc.TwoPCPoint) bool {
	i.mu.Lock()
	if i.down[part] {
		i.mu.Unlock()
		return false
	}
	hit := -1
	for j := range i.armed {
		t := &i.armed[j]
		if t.Edge != part || t.Point != point {
			continue
		}
		t.seen++
		if hit < 0 && t.seen == max(t.Round, 1) {
			hit = j
		}
	}
	if hit < 0 {
		i.mu.Unlock()
		return true
	}
	t := i.armed[hit]
	i.armed = append(i.armed[:hit], i.armed[hit+1:]...)
	i.mu.Unlock()

	if i.Crash(part) && t.RestartAfter > 0 {
		i.clk.Go(func() {
			i.clk.Sleep(t.RestartAfter)
			i.Restart(part)
		})
	}
	return false
}

// Crash fail-stops edge e: liveness flips, the crash epoch advances (the
// signal to in-flight transactions that their locks there are gone), and
// the partition's volatile protocol state is dropped. The store object is
// left for Restart to rebuild — nothing may trust it while down. It
// reports whether this call performed the crash; false means the edge was
// already down, and the crash that downed it owns the recovery.
func (i *Injector) Crash(e int) bool {
	i.mu.Lock()
	if i.down[e] {
		i.mu.Unlock()
		return false
	}
	i.down[e] = true
	i.epoch[e]++
	i.crashedAt[e] = i.clk.Now()
	i.counters.Crashes++
	i.mu.Unlock()
	i.parts[e].CrashReset()
	return true
}

// Restart recovers edge e from its WAL, charging the recovery cost in
// clock time; it does nothing unless e is down and not already recovering.
func (i *Injector) Restart(e int) { i.restart(e, true) }

// restart recovers edge e from its WAL: the recovery cost (ReplayCost per
// record plus one inquiry round trip per in-doubt block, when charge is
// set) is slept first off a sizing pass, and only then does an
// authoritative replay rebuild the state — so a write that reaches the
// log while the recovery clock runs (a retraction restore journaled to a
// down partition) is included, never silently erased. The committed state
// is reinstalled, the decision cache rebuilt, in-doubt blocks resolved
// against their coordinators' logs, and finally peers' blocks waiting on
// e as coordinator resolve too.
func (i *Injector) restart(e int, charge bool) {
	i.mu.Lock()
	if !i.down[e] || i.recovering[e] {
		i.mu.Unlock()
		return
	}
	i.recovering[e] = true
	i.mu.Unlock()
	tReplay := i.clk.Now()

	if charge {
		path := i.parts[e].WALPath()
		records, coords, err := wal.Probe(path)
		if err != nil {
			panic(fmt.Sprintf("faults: sizing recovery of edge %d from %s: %v", e, path, err))
		}
		cost := time.Duration(records) * i.replayCost
		for _, coord := range coords {
			if coord != e && !i.peerDown(e, coord) {
				if l := i.links[e][coord]; l != nil {
					cost += 2 * l.TransferTime(256)
				}
			}
		}
		if cost > 0 {
			i.clk.Sleep(cost)
		}
	}

	// No virtual time passes below: the state the replay sees is the
	// state the fleet observes when the edge rejoins.
	res, err := i.parts[e].Recover()
	if err != nil {
		panic(fmt.Sprintf("faults: recovering edge %d: %v", e, err))
	}
	deadLogs := make(map[int]map[wal.TxnRound]bool) // per-coordinator inquiry cache
	for _, d := range res.InDoubt {
		cr := twopc.CommitRound{ID: txn.ID(d.Txn), Round: d.Round}
		commit, known := i.inquire(e, d.Coord, cr, deadLogs)
		i.parts[e].Restage(cr, d.Coord, d.Writes)
		if known {
			i.resolveStaged(e, cr, commit)
		}
		// Unknown — a live coordinator whose round may still be in flight,
		// or a coordinator behind a partitioned link — keeps the block
		// staged: it resolves at the round's own phase-2 delivery, at the
		// coordinator's next recovery sweep, or at Finish. Presuming abort
		// here could half-commit a round the coordinator is about to (or
		// already did) decide.
	}

	i.mu.Lock()
	i.down[e] = false
	i.recovering[e] = false
	i.counters.Restarts++
	i.counters.ReplayedRecords += int64(res.Records)
	if res.Truncated {
		i.counters.TornTails++
	}
	if charge {
		// Only scheduled recoveries sample the latency distribution: the
		// end-of-run repair in Finish pays no outage or replay cost, and
		// its crash-to-drain interval would say nothing about recovery.
		i.recovery.Observe(i.clk.Now() - i.crashedAt[e])
	}
	i.mu.Unlock()
	i.obs.Span(obs.SpanWALReplay, i.edgeTag(e), tReplay, i.clk.Now())

	// Peers may hold blocks whose coordinator was e; its decisions are
	// durable again, so they can resolve now.
	i.sweep(e)
}

// inquire asks an in-doubt commit round's coordinator for its outcome. A
// reachable live coordinator answers from its decision cache — and "no
// decision yet" means the round may still be in flight, so the answer is
// unknown, NOT abort. A partitioned peer link makes the coordinator —
// live or dead — unreachable outright: the answer is unknown and the
// block defers to the coordinator's sweep or to Finish; reading its state
// across a severed link would undermine the partition model. Our own log
// and a reachable dead coordinator's log (scanned once per coordinator
// via deadLogs) are the final word: the crashed round can never decide
// later, so a missing decision record there is presumed abort (known).
// The peer link is charged but not slept: the inquiry time was part of
// the restart's recovery cost.
func (i *Injector) inquire(at, coord int, cr twopc.CommitRound, deadLogs map[int]map[wal.TxnRound]bool) (commit, known bool) {
	if at == coord {
		c, k := i.parts[at].Decision(cr)
		return c && k, true // our own recovered log: no record ⇒ the round died with us
	}
	if i.peerDown(at, coord) {
		return false, false // coordinator unreachable: stay in doubt
	}
	if l := i.links[at][coord]; l != nil {
		l.Charge(256)
		l.Charge(256)
	}
	if !i.Down(coord) {
		c, k := i.parts[coord].Decision(cr)
		return c && k, k // undecided on a live coordinator: still in flight
	}
	d, ok := deadLogs[coord]
	if !ok {
		var err error
		d, err = wal.Decisions(i.parts[coord].WALPath())
		if err != nil {
			panic(fmt.Sprintf("faults: inquiring coordinator %d log: %v", coord, err))
		}
		deadLogs[coord] = d
	}
	return d[cr.TxnRound()], true // a dead coordinator's log is final: absence ⇒ abort
}

// resolveStaged delivers the decision for one staged block and counts it.
func (i *Injector) resolveStaged(pi int, cr twopc.CommitRound, commit bool) {
	i.parts[pi].DeliverDecision(cr, commit)
	i.mu.Lock()
	i.counters.InDoubt++
	if commit {
		i.counters.InDoubtCommitted++
	} else {
		i.counters.InDoubtAborted++
	}
	i.mu.Unlock()
}

// sweep resolves, at every live partition, the staged blocks coordinated
// by the just-recovered edge. A partition behind a severed peer link is
// skipped — delivering a decision across a partition would break the
// partition model just like reading across one; its blocks resolve at a
// later sweep, at its own restart's inquiry, or at Finish.
func (i *Injector) sweep(coord int) {
	for pi, p := range i.parts {
		if i.Down(pi) {
			continue // resolves at its own restart
		}
		if i.peerDown(pi, coord) {
			continue // partitioned from the coordinator: stays in doubt
		}
		for _, cr := range p.StagedBy(coord) {
			commit, _ := i.parts[coord].Decision(cr)
			i.resolveStaged(pi, cr, commit)
		}
	}
}

// peerDown reports whether the peer path between edges a and b is severed
// in either direction — an inquiry is a round trip and a decision delivery
// travels the opposite way from the check's caller, so one dead direction
// partitions the pair for in-doubt resolution purposes.
func (i *Injector) peerDown(a, b int) bool {
	if l := i.links[a][b]; l != nil && l.IsDown() {
		return true
	}
	if l := i.links[b][a]; l != nil && l.IsDown() {
		return true
	}
	return false
}

// SetLink severs (down) or heals both directions of the peer path between
// edges a and b.
func (i *Injector) SetLink(a, b int, down bool) {
	if l := i.links[a][b]; l != nil {
		l.SetDown(down)
	}
	if l := i.links[b][a]; l != nil {
		l.SetDown(down)
	}
	if down {
		i.mu.Lock()
		i.counters.LinkOutages++
		i.mu.Unlock()
	}
}

// Counters returns a snapshot of the fault counters.
func (i *Injector) Counters() Counters {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counters
}

// Report summarizes the run: counters plus recovery-time percentiles.
func (i *Injector) Report() *Report {
	i.mu.Lock()
	defer i.mu.Unlock()
	return &Report{
		Counters:    i.counters,
		RecoveryP50: i.recovery.Quantile(0.50),
		RecoveryP95: i.recovery.Quantile(0.95),
		RecoveryP99: i.recovery.Quantile(0.99),
	}
}

// VerifyDurability checks, after a drained and Finished run, that every
// partition passes its durability check (Partition.VerifyWAL: the log
// replays cleanly, with no in-doubt round left, to exactly the live store)
// and that atomic commitment held across partitions per commit round (no
// round both committed on one log and aborted on another — a transaction
// whose initial round committed and whose final round aborted is a
// legitimate retraction, not a split) — i.e. the crash schedule lost no
// committed write, leaked no staged state, and half-committed nothing.
func (i *Injector) VerifyDurability() error {
	verdicts := make(map[wal.TxnRound]bool)
	for pi, p := range i.parts {
		res, err := p.VerifyWAL()
		if err != nil {
			return fmt.Errorf("faults: partition %d: %w", pi, err)
		}
		for k, commit := range res.Decisions {
			if prev, ok := verdicts[k]; ok && prev != commit {
				return fmt.Errorf("faults: txn %d round %d committed on one partition and aborted on another (seen at partition %d)", k.Txn, k.Round, pi)
			}
			verdicts[k] = commit
		}
	}
	return nil
}
