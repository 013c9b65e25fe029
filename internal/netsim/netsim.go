// Package netsim models the network paths of the Croesus deployment:
// client↔edge and edge↔cloud links with propagation delay and bandwidth,
// cumulative traffic/cost accounting, and the frame preprocessors
// (compression, difference communication) of the hybrid edge-cloud
// techniques compared in Figure 6(c).
package netsim

import (
	"sync"
	"time"

	"croesus/internal/vclock"
)

// Link is a one-way network path. Transfer time for a payload of n bytes is
// Propagation + n/Bandwidth.
type Link struct {
	Name        string
	Propagation time.Duration // one-way propagation delay
	Bandwidth   float64       // bytes per second; 0 means infinite

	mu       sync.Mutex
	bytes    int64
	messages int64
	down     bool
}

// TransferTime returns the modeled one-way transfer time for n bytes.
func (l *Link) TransferTime(n int) time.Duration {
	d := l.Propagation
	if l.Bandwidth > 0 {
		d += time.Duration(float64(n) / l.Bandwidth * float64(time.Second))
	}
	return d
}

// Send sleeps for the transfer time of n bytes on clk and records traffic.
func (l *Link) Send(clk vclock.Clock, n int) {
	clk.Sleep(l.Charge(n))
}

// Charge records the traffic of an n-byte message and returns its transfer
// time without sleeping. Callers that fan a round of messages out in
// parallel charge each link and sleep once for the maximum.
func (l *Link) Charge(n int) time.Duration {
	l.mu.Lock()
	l.bytes += int64(n)
	l.messages++
	l.mu.Unlock()
	return l.TransferTime(n)
}

// SetDown partitions (true) or heals (false) the link. The link itself
// keeps accounting; callers decide what an unreachable peer means (the
// sharded fleet fails the transaction touching it).
func (l *Link) SetDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
}

// IsDown reports whether the link is currently partitioned.
func (l *Link) IsDown() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// Traffic reports cumulative bytes and message count.
func (l *Link) Traffic() (bytes, messages int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes, l.messages
}

// CostUSD estimates the monetary cost of the traffic sent over this link at
// the given $/GiB rate — the paper motivates thresholding partly by cloud
// egress pricing.
func (l *Link) CostUSD(perGiB float64) float64 {
	b, _ := l.Traffic()
	return float64(b) / (1 << 30) * perGiB
}

// The default topology mirrors the paper's setup: edge machines in
// California, cloud in Virginia (~60 ms one-way), clients adjacent to the
// edge (~5 ms).

// ClientEdgeLink returns the client→edge path.
func ClientEdgeLink() *Link {
	return &Link{Name: "client-edge", Propagation: 5 * time.Millisecond, Bandwidth: 50 << 20}
}

// EdgeCloudCrossCountry returns the California→Virginia edge→cloud path.
// The bandwidth reflects a typical edge uplink (~20 Mbps), which is what
// makes frame compression worthwhile in Figure 6(c).
func EdgeCloudCrossCountry() *Link {
	return &Link{Name: "edge-cloud-ca-va", Propagation: 60 * time.Millisecond, Bandwidth: 2_500_000}
}

// EdgeCloudSameSite returns an edge→cloud path within one location.
func EdgeCloudSameSite() *Link {
	return &Link{Name: "edge-cloud-same", Propagation: 1 * time.Millisecond, Bandwidth: 100 << 20}
}

// EdgeEdgeLink returns the inter-edge peer path cross-edge transactions
// travel: edge nodes share a metro (~8 ms one-way) over a provisioned
// 100 Mbps peering, far cheaper than the cross-country cloud hop but never
// free — which is exactly the trade-off the sharded-keyspace experiments
// measure.
func EdgeEdgeLink() *Link {
	return &Link{Name: "edge-edge", Propagation: 8 * time.Millisecond, Bandwidth: (100 << 20) / 8}
}

// LabelReturnBytes is the size of a label set reply; label messages are tiny
// compared to frames.
const LabelReturnBytes = 2 << 10

// Preprocessor transforms a frame payload before it crosses the edge→cloud
// link, trading CPU time for bytes. This models the hybrid edge-cloud
// techniques (compression, difference communication) of Figure 6(c).
type Preprocessor interface {
	Name() string
	// Process returns the transmitted size for a frame of rawBytes and
	// the CPU time spent producing it on a speed-1.0 machine.
	Process(rawBytes int) (sentBytes int, cost time.Duration)
}

// Identity sends frames unchanged.
type Identity struct{}

// Name returns "identity".
func (Identity) Name() string { return "identity" }

// Process returns the input unchanged at zero cost.
func (Identity) Process(rawBytes int) (int, time.Duration) { return rawBytes, 0 }

// Compression re-encodes the frame at a lower size.
type Compression struct {
	Ratio float64       // output/input size, e.g. 0.55
	Cost  time.Duration // CPU time per frame
}

// Name returns "compression".
func (Compression) Name() string { return "compression" }

// Process shrinks the payload by Ratio.
func (c Compression) Process(rawBytes int) (int, time.Duration) {
	return int(float64(rawBytes) * c.Ratio), c.Cost
}

// DiffComm sends only the difference against a reference frame.
type DiffComm struct {
	Ratio float64 // additional shrink on top of the incoming size
	Cost  time.Duration
}

// Name returns "difference".
func (DiffComm) Name() string { return "difference" }

// Process shrinks the payload by Ratio.
func (d DiffComm) Process(rawBytes int) (int, time.Duration) {
	return int(float64(rawBytes) * d.Ratio), d.Cost
}

// Chain composes preprocessors left to right.
type Chain []Preprocessor

// Name joins the component names.
func (c Chain) Name() string {
	if len(c) == 0 {
		return "identity"
	}
	name := c[0].Name()
	for _, p := range c[1:] {
		name += "+" + p.Name()
	}
	return name
}

// Process applies every stage, summing costs.
func (c Chain) Process(rawBytes int) (int, time.Duration) {
	var total time.Duration
	n := rawBytes
	for _, p := range c {
		var cost time.Duration
		n, cost = p.Process(n)
		total += cost
	}
	return n, total
}

// DefaultCompression matches typical JPEG re-encoding gains.
func DefaultCompression() Compression {
	return Compression{Ratio: 0.55, Cost: 12 * time.Millisecond}
}

// DefaultDiffComm matches frame differencing on mostly static scenes.
func DefaultDiffComm() DiffComm {
	return DiffComm{Ratio: 0.45, Cost: 8 * time.Millisecond}
}
