package cluster

import (
	"croesus/internal/core"
	"croesus/internal/netsim"
)

// EdgeUplink adapts one edge node's uplink to the fleet's shared cloud
// Batcher: it charges the edge→cloud hop (core.Uplink: preprocessing and
// transfer) on the calling frame's goroutine, hands the
// request to the batcher, and charges the label-return transfer on the
// way back. It implements core.Validator, so a cluster pipeline differs
// from a single-edge one only by this injection.
type EdgeUplink struct {
	Uplink  core.Uplink
	Batcher *Batcher
}

// Validate implements core.Validator.
func (u *EdgeUplink) Validate(req core.ValidationRequest) core.ValidationResult {
	if u.Uplink.Link.IsDown() {
		// The edge→cloud uplink is partitioned (a scenario link fault):
		// the frame never reaches the batcher and the edge finalizes at
		// once with its own labels — the paper's loss path.
		return core.ValidationResult{Status: core.ValidationLost}
	}
	edgeCloud := u.Uplink.Ship(req.Frame)

	res := u.Batcher.Validate(req)
	res.EdgeCloud = edgeCloud
	if res.Status == core.Validated {
		clk := u.Uplink.Clock
		t2 := clk.Now()
		u.Uplink.Link.Send(clk, netsim.LabelReturnBytes)
		res.CloudReturn = clk.Now() - t2
	}
	return res
}
