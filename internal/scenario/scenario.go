// Package scenario is the declarative deployment API of the Croesus
// reproduction: a Scenario names a fleet topology — edges, cameras,
// protocol, shards, cloud batcher — plus a clock-ordered timeline of events
// that reshape the fleet while it runs: cameras joining and leaving, a
// camera (and its logical shard's keys) migrating between edges, workload
// shifts, scripted faults, and WAL checkpoints. The paper evaluates fixed
// fleets run to completion; a production system's interesting behaviour is
// exactly what happens at these runtime events, and a scenario makes each
// of them a first-class, replayable input: the same scenario under the
// same seed yields a byte-identical report.
//
// Scenarios have a versioned JSON encoding (Decode/Encode, currently
// version 1) so they live in files next to experiments; internal/scenario
// also owns the runtime that drives a cluster.Cluster through the
// timeline (run.go). A scenario is the only public way to describe a
// fleet: it compiles to a cluster.Config, the cluster's internal form.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"croesus/internal/node"
	"croesus/internal/video"
)

// CurrentVersion is the encoding version this build reads and writes.
const CurrentVersion = 1

// Scenario is one declarative fleet deployment: a topology and the event
// timeline that plays against it.
type Scenario struct {
	// Version is the encoding version (CurrentVersion when zero).
	Version int `json:"version"`
	// Name labels the scenario in reports and files.
	Name string `json:"name,omitempty"`
	// Seed drives every model, video, and workload in the run (default
	// 42); one seed, one byte-identical report.
	Seed int64 `json:"seed,omitempty"`

	Topology Topology `json:"topology"`
	Timeline []Event  `json:"timeline,omitempty"`
}

// Topology declares the fleet as it exists at time zero.
type Topology struct {
	Edges   []Edge   `json:"edges"`
	Cameras []Camera `json:"cameras"`

	// Protocol is "ms-ia" (default) or "ms-sr".
	Protocol string `json:"protocol,omitempty"`
	// Sharded makes the fleet keyspace one database sharded across the
	// edges. Implied by CrossEdgeFraction, ZipfSkew, Durable,
	// checkpointing, or any event that needs durable partitions. A
	// sharded scenario gives every camera its own logical shard, so a
	// migration moves exactly that camera's data.
	Sharded           bool    `json:"sharded,omitempty"`
	CrossEdgeFraction float64 `json:"cross_edge_fraction,omitempty"`
	ZipfSkew          float64 `json:"zipf_skew,omitempty"`

	// WorkloadKeys sizes each camera's transaction keyspace (default
	// 1000); OpCost charges clock time per database operation.
	OpCost       Duration `json:"op_cost,omitempty"`
	WorkloadKeys int      `json:"workload_keys,omitempty"`

	// ThetaL/ThetaU are the bandwidth thresholds (defaults 0.40/0.62);
	// OverlapMin the label-matching threshold (default 0.10).
	ThetaL     float64 `json:"theta_l,omitempty"`
	ThetaU     float64 `json:"theta_u,omitempty"`
	OverlapMin float64 `json:"overlap_min,omitempty"`

	// Graph declares the inference graph: an ordered node list where
	// node k hosts transaction section k, each pinned to a placement
	// tier (edge, peer, or cloud). Absent — or the default spec, an edge
	// node falling through to a cloud node — the fleet runs the two-stage
	// graph: bandwidth thresholding (theta_l/theta_u) into the shared
	// batcher, reported as initial and final commits.
	Graph *node.GraphSpec `json:"graph,omitempty"`

	Batcher Batcher `json:"batcher,omitempty"`

	// Durable gives every edge partition a write-ahead log even without
	// scheduled faults; CheckpointEvery checkpoints the logs on that
	// period (implies Durable). ReplayCost is the virtual time charged
	// per WAL record replayed during crash recovery.
	Durable         bool     `json:"durable,omitempty"`
	CheckpointEvery Duration `json:"checkpoint_every,omitempty"`
	ReplayCost      Duration `json:"replay_cost,omitempty"`
}

// Edge declares one edge node.
type Edge struct {
	ID string `json:"id"`
	// Speed is the machine speed factor (default 1.0).
	Speed float64 `json:"speed,omitempty"`
	// Slots bounds concurrent edge inferences (default 2).
	Slots int `json:"slots,omitempty"`
	// SameSite co-locates the edge with the cloud.
	SameSite bool `json:"same_site,omitempty"`
}

// Camera declares one camera stream (in the topology, or joining mid-run).
type Camera struct {
	ID string `json:"id"`
	// Profile names the synthetic scene, e.g. "v2-street-vehicles" (the
	// "vN-" prefix may be omitted).
	Profile string `json:"profile"`
	// Seed differentiates videos of the same profile (default: scenario
	// seed + camera index).
	Seed int64 `json:"seed,omitempty"`
	// Frames is the stream length (default 100).
	Frames int `json:"frames,omitempty"`
	// Edge places the camera. Required in sharded scenarios (the
	// camera's shard needs a home before the run starts); optional
	// otherwise (round-robin placement).
	Edge string `json:"edge,omitempty"`
}

// Batcher configures the shared cloud validator.
type Batcher struct {
	MaxBatch   int      `json:"max_batch,omitempty"`
	SLO        Duration `json:"slo,omitempty"`
	MaxPending int      `json:"max_pending,omitempty"`
	CloudSpeed float64  `json:"cloud_speed,omitempty"`
}

// Event kinds.
const (
	// KindCameraJoin adds Join (a Camera) to the fleet at At.
	KindCameraJoin = "camera_join"
	// KindCameraLeave retires Camera at At.
	KindCameraLeave = "camera_leave"
	// KindMigrateCamera moves Camera — and, sharded, its logical shard's
	// keys via a 2PC handoff — to edge To.
	KindMigrateCamera = "migrate_camera"
	// KindWorkloadShift re-shapes Camera's (or, empty, every camera's)
	// workload: Rate scales the capture rate, CrossEdgeFraction and
	// ZipfSkew reshape the key stream.
	KindWorkloadShift = "workload_shift"
	// KindEdgeCrash fail-stops Edge at At, restarting after RestartAfter
	// (≤ 0: down for the rest of the run). Sharded fleets recover from
	// the WAL; unsharded fleets drop the edge's frames while dark.
	KindEdgeCrash = "edge_crash"
	// KindEdgeRetire gracefully drains Edge out of the fleet at At — the
	// planned counterpart of a crash: its cameras (and, sharded, their
	// logical shards, via the shard-map 2PC handoff) migrate to the
	// remaining edges in index order, then the edge is permanently
	// excluded from placement. No frame is dropped by a clean retirement.
	KindEdgeRetire = "edge_retire"
	// KindTwoPCCrash fail-stops Edge at the Round-th occurrence of the
	// scripted 2PC Point. Needs durable partitions (sharded).
	KindTwoPCCrash = "twopc_crash"
	// KindLinkFault partitions the peer path A↔B (or, with B "cloud",
	// A's cloud uplink) from At until Heal.
	KindLinkFault = "link_fault"
	// KindCheckpoint checkpoints Edge's WAL (or, empty, every edge's).
	KindCheckpoint = "checkpoint"
)

// The scripted 2PC crash points of KindTwoPCCrash.
const (
	PointParticipantPrepared = "participant-prepared"
	PointAfterPrepare        = "after-prepare"
	PointAfterDecision       = "after-decision"
)

// Event is one timeline entry. Do selects the kind; the other fields are
// the kind's operands (see the Kind constants).
type Event struct {
	At Duration `json:"at"`
	Do string   `json:"do"`

	Camera string  `json:"camera,omitempty"`
	Join   *Camera `json:"join,omitempty"`
	Edge   string  `json:"edge,omitempty"`
	To     string  `json:"to,omitempty"`
	A      string  `json:"a,omitempty"`
	B      string  `json:"b,omitempty"`

	RestartAfter Duration `json:"restart_after,omitempty"`
	Heal         Duration `json:"heal,omitempty"`
	Point        string   `json:"point,omitempty"`
	Round        int      `json:"round,omitempty"`

	Rate              *float64 `json:"rate,omitempty"`
	CrossEdgeFraction *float64 `json:"cross_edge_fraction,omitempty"`
	ZipfSkew          *float64 `json:"zipf_skew,omitempty"`
}

// Label names an event for phase reports and progress lines.
func (e Event) Label() string {
	switch e.Do {
	case KindCameraJoin:
		id := ""
		if e.Join != nil {
			id = e.Join.ID
		}
		return "join:" + id
	case KindCameraLeave:
		return "leave:" + e.Camera
	case KindMigrateCamera:
		return "migrate:" + e.Camera + "→" + e.To
	case KindWorkloadShift:
		if e.Camera == "" {
			return "shift:fleet"
		}
		return "shift:" + e.Camera
	case KindEdgeCrash:
		return "crash:" + e.Edge
	case KindEdgeRetire:
		return "retire:" + e.Edge
	case KindTwoPCCrash:
		return "2pc-crash:" + e.Edge
	case KindLinkFault:
		return "partition:" + e.A + "↔" + e.B
	case KindCheckpoint:
		if e.Edge == "" {
			return "checkpoint:fleet"
		}
		return "checkpoint:" + e.Edge
	default:
		return e.Do
	}
}

// Sharded reports whether the scenario runs the sharded keyspace — set
// explicitly or implied by a knob or event that needs it.
func (s *Scenario) Sharded() bool {
	t := s.Topology
	if t.Sharded || t.CrossEdgeFraction > 0 || t.ZipfSkew > 0 || t.Durable || t.CheckpointEvery > 0 {
		return true
	}
	for _, ev := range s.Timeline {
		// Checkpoints need a WAL, which lives on the sharded fleet's
		// durable partitions; a checkpoint event upgrades the fleet.
		// TwoPC crashes do NOT upgrade — they are validated against the
		// declared topology (see Validate) so an unsharded scenario gets
		// a clear error instead of silently changing semantics.
		if ev.Do == KindCheckpoint {
			return true
		}
	}
	return false
}

// profiles is video.AllProfiles built once; lookups hand out copies whose
// Classes slice is shared and never written.
var profiles = video.AllProfiles()

// ProfileFor resolves a camera's video profile by its declared name,
// accepting the canonical name ("v1-park-dog") or the unprefixed form
// ("park-dog").
func ProfileFor(name string) (video.Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
		if i := strings.Index(p.Name, "-"); i > 0 && p.Name[i+1:] == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range profiles {
		names = append(names, p.Name)
	}
	return video.Profile{}, fmt.Errorf("scenario: unknown profile %q (have %s)", name, strings.Join(names, ", "))
}

// Cameras returns every camera the scenario ever runs — topology cameras
// first, then joins in timeline order — and the id → index map. The index
// is the camera's deterministic identity: its default seed offset, and
// its logical shard in sharded scenarios.
func (s *Scenario) Cameras() ([]Camera, map[string]int, error) {
	var all []Camera
	byID := map[string]int{}
	add := func(c Camera) error {
		if c.ID == "" {
			return fmt.Errorf("scenario: every camera needs an id")
		}
		if _, dup := byID[c.ID]; dup {
			return fmt.Errorf("scenario: duplicate camera %q", c.ID)
		}
		byID[c.ID] = len(all)
		all = append(all, c)
		return nil
	}
	for _, c := range s.Topology.Cameras {
		if err := add(c); err != nil {
			return nil, nil, err
		}
	}
	for _, ev := range s.SortedTimeline() {
		if ev.Do == KindCameraJoin {
			if ev.Join == nil {
				return nil, nil, fmt.Errorf("scenario: camera_join at %s needs a join camera", time.Duration(ev.At))
			}
			if err := add(*ev.Join); err != nil {
				return nil, nil, err
			}
		}
	}
	return all, byID, nil
}

// SortedTimeline returns the timeline in clock order (stable on ties) —
// the playback order every runner uses.
func (s *Scenario) SortedTimeline() []Event {
	out := append([]Event{}, s.Timeline...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// CameraSeed is the deterministic seed for one of the scenario's cameras:
// the camera's own, or the scenario seed (default 42) plus the camera's
// index from Cameras.
func (s *Scenario) CameraSeed(cam Camera, index int) int64 {
	if cam.Seed != 0 {
		return cam.Seed
	}
	return s.seed() + int64(index)
}

// seed is the scenario seed, 42 when unset.
func (s *Scenario) seed() int64 {
	if s.Seed == 0 {
		return 42
	}
	return s.Seed
}

// Validate checks the scenario for structural errors: unknown references,
// bad knobs, events that need machinery the topology doesn't provide. A
// valid scenario builds and runs.
func (s *Scenario) Validate() error {
	if s.Version != 0 && s.Version != CurrentVersion {
		return fmt.Errorf("scenario: version %d not supported (this build reads version %d)", s.Version, CurrentVersion)
	}
	t := s.Topology
	if len(t.Edges) == 0 {
		return fmt.Errorf("scenario: at least one edge is required")
	}
	if len(t.Cameras) == 0 {
		return fmt.Errorf("scenario: at least one camera is required")
	}
	edgeIdx := map[string]bool{}
	for _, e := range t.Edges {
		if e.ID == "" {
			return fmt.Errorf("scenario: every edge needs an id")
		}
		if edgeIdx[e.ID] {
			return fmt.Errorf("scenario: duplicate edge %q", e.ID)
		}
		edgeIdx[e.ID] = true
	}
	if _, err := node.ParseProtocol(t.Protocol); err != nil {
		return fmt.Errorf("scenario: unknown protocol %q (want ms-ia or ms-sr)", t.Protocol)
	}
	if t.CrossEdgeFraction < 0 || t.CrossEdgeFraction > 1 {
		return fmt.Errorf("scenario: cross_edge_fraction %g outside [0, 1]", t.CrossEdgeFraction)
	}
	if t.ZipfSkew < 0 || t.OpCost < 0 || t.WorkloadKeys < 0 || t.CheckpointEvery < 0 || t.ReplayCost < 0 {
		return fmt.Errorf("scenario: negative knob (zipf_skew, op_cost, workload_keys, checkpoint_every, replay_cost must be ≥ 0)")
	}
	if t.Graph != nil {
		if err := t.Graph.Validate(len(t.Edges)); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}

	sharded := s.Sharded()
	cams, camIdx, err := s.Cameras()
	if err != nil {
		return err
	}
	joinAt := map[string]Duration{}
	for _, ev := range s.SortedTimeline() {
		if ev.Do == KindCameraJoin && ev.Join != nil {
			joinAt[ev.Join.ID] = ev.At
		}
	}
	for _, c := range cams {
		if _, err := ProfileFor(c.Profile); err != nil {
			return fmt.Errorf("camera %q: %w", c.ID, err)
		}
		if c.Frames < 0 {
			return fmt.Errorf("scenario: camera %q frames must be ≥ 0", c.ID)
		}
		if c.Edge != "" && !edgeIdx[c.Edge] {
			return fmt.Errorf("scenario: camera %q placed on unknown edge %q", c.ID, c.Edge)
		}
		if sharded && c.Edge == "" {
			return fmt.Errorf("scenario: camera %q needs an edge: a sharded scenario pins every camera so its shard has a home", c.ID)
		}
	}

	// Retirements are permanent: later events may not target a retired
	// edge, and at least one edge must outlive the timeline.
	retireAt := map[string]Duration{}
	for _, ev := range s.SortedTimeline() {
		if ev.Do != KindEdgeRetire {
			continue
		}
		if !edgeIdx[ev.Edge] {
			return fmt.Errorf("scenario: edge_retire at %s references unknown edge %q", time.Duration(ev.At), ev.Edge)
		}
		if len(t.Edges) < 2 {
			return fmt.Errorf("scenario: edge_retire at %s needs somewhere to drain to — the topology declares only one edge", time.Duration(ev.At))
		}
		if _, dup := retireAt[ev.Edge]; dup {
			return fmt.Errorf("scenario: edge %q retired twice", ev.Edge)
		}
		retireAt[ev.Edge] = ev.At
	}
	if len(retireAt) > 0 && len(retireAt) >= len(t.Edges) {
		return fmt.Errorf("scenario: the timeline retires every edge — at least one must remain to host the fleet")
	}
	retiredBy := func(edge string, at Duration) bool {
		r, ok := retireAt[edge]
		return ok && at >= r
	}

	camRef := func(ev Event, id string) error {
		i, ok := camIdx[id]
		if !ok {
			return fmt.Errorf("scenario: %s at %s references unknown camera %q", ev.Do, time.Duration(ev.At), id)
		}
		if at, joins := joinAt[id]; joins && ev.At < at && i >= len(t.Cameras) {
			return fmt.Errorf("scenario: %s at %s references camera %q before it joins at %s", ev.Do, time.Duration(ev.At), id, time.Duration(at))
		}
		return nil
	}
	edgeRef := func(ev Event, id string) error {
		if !edgeIdx[id] {
			return fmt.Errorf("scenario: %s at %s references unknown edge %q", ev.Do, time.Duration(ev.At), id)
		}
		return nil
	}

	for _, ev := range s.Timeline {
		if ev.At < 0 {
			return fmt.Errorf("scenario: %s scheduled at negative time %s", ev.Do, time.Duration(ev.At))
		}
		switch ev.Do {
		case KindCameraJoin:
			if ev.Join == nil {
				return fmt.Errorf("scenario: camera_join at %s needs a join camera", time.Duration(ev.At))
			}
			if ev.Join.Edge != "" && retiredBy(ev.Join.Edge, ev.At) {
				return fmt.Errorf("scenario: camera %q joins at %s pinned to edge %q, which retires at %s",
					ev.Join.ID, time.Duration(ev.At), ev.Join.Edge, time.Duration(retireAt[ev.Join.Edge]))
			}
		case KindCameraLeave:
			if err := camRef(ev, ev.Camera); err != nil {
				return err
			}
		case KindMigrateCamera:
			if err := camRef(ev, ev.Camera); err != nil {
				return err
			}
			if err := edgeRef(ev, ev.To); err != nil {
				return err
			}
			if retiredBy(ev.To, ev.At) {
				return fmt.Errorf("scenario: migrate_camera at %s targets edge %q, which retires at %s",
					time.Duration(ev.At), ev.To, time.Duration(retireAt[ev.To]))
			}
		case KindWorkloadShift:
			if ev.Camera != "" {
				if err := camRef(ev, ev.Camera); err != nil {
					return err
				}
			}
			if ev.Rate == nil && ev.CrossEdgeFraction == nil && ev.ZipfSkew == nil {
				return fmt.Errorf("scenario: workload_shift at %s changes nothing (set rate, cross_edge_fraction, or zipf_skew)", time.Duration(ev.At))
			}
			if ev.Rate != nil && *ev.Rate <= 0 {
				return fmt.Errorf("scenario: workload_shift rate must be > 0, got %g", *ev.Rate)
			}
			if ev.CrossEdgeFraction != nil && (*ev.CrossEdgeFraction < 0 || *ev.CrossEdgeFraction > 1) {
				return fmt.Errorf("scenario: workload_shift cross_edge_fraction %g outside [0, 1]", *ev.CrossEdgeFraction)
			}
			if ev.ZipfSkew != nil && *ev.ZipfSkew < 0 {
				return fmt.Errorf("scenario: workload_shift zipf_skew must be ≥ 0, got %g", *ev.ZipfSkew)
			}
			if (ev.CrossEdgeFraction != nil || ev.ZipfSkew != nil) && !sharded {
				return fmt.Errorf("scenario: workload_shift at %s reshapes sharded keys, but the scenario is not sharded", time.Duration(ev.At))
			}
		case KindEdgeCrash:
			if err := edgeRef(ev, ev.Edge); err != nil {
				return err
			}
		case KindEdgeRetire:
			// Fully validated with the retirement rules above.
		case KindTwoPCCrash:
			if err := edgeRef(ev, ev.Edge); err != nil {
				return err
			}
			if !sharded {
				return fmt.Errorf("scenario: twopc_crash at %s needs durable partitions — only a sharded fleet runs 2PC rounds to crash inside (set topology.sharded, cross_edge_fraction, or durable)", time.Duration(ev.At))
			}
			switch ev.Point {
			case PointParticipantPrepared, PointAfterPrepare, PointAfterDecision:
			default:
				return fmt.Errorf("scenario: twopc_crash at %s: unknown point %q (want %s, %s, or %s)",
					time.Duration(ev.At), ev.Point, PointParticipantPrepared, PointAfterPrepare, PointAfterDecision)
			}
			if ev.Round < 0 {
				return fmt.Errorf("scenario: twopc_crash round must be ≥ 0, got %d", ev.Round)
			}
		case KindLinkFault:
			if err := edgeRef(ev, ev.A); err != nil {
				return err
			}
			if ev.B != "cloud" {
				if err := edgeRef(ev, ev.B); err != nil {
					return err
				}
				if ev.A == ev.B {
					return fmt.Errorf("scenario: link_fault at %s partitions %q from itself", time.Duration(ev.At), ev.A)
				}
				if !sharded {
					return fmt.Errorf("scenario: link_fault between edges needs a sharded fleet (unsharded edges share no peer links); fault the cloud uplink with b: \"cloud\" instead")
				}
			}
		case KindCheckpoint:
			if ev.Edge != "" {
				if err := edgeRef(ev, ev.Edge); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("scenario: unknown event kind %q at %s", ev.Do, time.Duration(ev.At))
		}
	}
	return nil
}
