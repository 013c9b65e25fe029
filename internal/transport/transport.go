// Package transport is the network seam between the fleet runtime and its
// modeled network. The cluster runtime (internal/cluster, driven by
// internal/scenario) speaks to the network only through the Path
// interface defined here: every client→edge frame delivery, every
// edge→cloud validation transfer, and every inter-edge 2PC message crosses
// a Path, and a severed link is a Path's SetDown.
//
// Sim provisions a fleet's paths: the netsim links of the simulated
// fleet. Paths charge modeled propagation + bandwidth time on the fleet's
// clock — the virtual clock for byte-identical replay, or a scaled real
// clock for a wall-clock run of the same fleet. Real bytes cross real
// sockets only in the process deployment (internal/tcpnet, croesus fleet),
// whose per-node pipelines use Null where the node's own socket carried the
// bytes and ShapedPath where a modeled link profile is injected on top.
package transport

import (
	"time"

	"croesus/internal/netsim"
	"croesus/internal/vclock"
)

// Path is one directed network path of the fleet (client→edge, edge→cloud,
// or edge→edge peer). *netsim.Link implements it natively. Implementations
// must be safe for concurrent use — frames overlap.
type Path interface {
	// Send carries an n-byte message across the path, blocking the caller
	// in clock time for the modeled transfer time. A message sent while
	// the path is severed is lost; callers that need to know check IsDown.
	Send(clk vclock.Clock, n int)
	// Charge accounts an n-byte message and returns the modeled transfer
	// time the caller should sleep for it: callers fanning a round out in
	// parallel charge every path and sleep once for the maximum.
	Charge(n int) time.Duration
	// TransferTime returns the modeled one-way transfer time for n bytes
	// without sending anything.
	TransferTime(n int) time.Duration
	// SetDown severs (true) or heals (false) the path; messages are
	// blackholed until healed.
	SetDown(down bool)
	// IsDown reports whether the path is currently severed.
	IsDown() bool
	// Traffic reports cumulative delivered bytes and message count.
	Traffic() (bytes, messages int64)
}

// *netsim.Link is the simulated Path.
var _ Path = (*netsim.Link)(nil)

// EdgeProfile is what Sim needs to know about one edge to provision its
// paths.
type EdgeProfile struct {
	// ID names the edge's paths.
	ID string
	// SameSite co-locates the edge with the cloud (short modeled uplink).
	SameSite bool
}

// Stats summarizes a Sim's lifetime activity.
type Stats struct {
	// Bytes and Messages count traffic delivered across all paths.
	Bytes, Messages int64
}

// Null is a zero-cost Path for hops some outer layer already paid for: the
// socket deployment's per-node pipeline uses it where the node's own socket
// carried the bytes, so nothing is double-charged.
type Null struct{}

// Send is a no-op.
func (Null) Send(vclock.Clock, int) {}

// Charge reports zero cost.
func (Null) Charge(int) time.Duration { return 0 }

// TransferTime reports zero cost.
func (Null) TransferTime(int) time.Duration { return 0 }

// SetDown is a no-op: a Null path cannot be severed.
func (Null) SetDown(bool) {}

// IsDown reports false.
func (Null) IsDown() bool { return false }

// Traffic reports nothing: the outer layer accounts the real bytes.
func (Null) Traffic() (int64, int64) { return 0, 0 }
