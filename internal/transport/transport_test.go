package transport

import (
	"testing"

	"croesus/internal/vclock"
)

// TestSimMatchesNetsimTopology pins the Sim transport to the standard
// fleet links: client paths are short, cloud uplinks long (unless
// same-site), and the peer mesh has no diagonal.
func TestSimMatchesNetsimTopology(t *testing.T) {
	s := NewSim()
	if err := s.Provision([]EdgeProfile{{ID: "west"}, {ID: "east", SameSite: true}}); err != nil {
		t.Fatal(err)
	}
	n := 32 << 10
	if ce, ec := s.ClientEdge(0).TransferTime(n), s.EdgeCloud(0).TransferTime(n); ce >= ec {
		t.Errorf("client-edge %v not shorter than cross-country uplink %v", ce, ec)
	}
	if far, near := s.EdgeCloud(0).TransferTime(n), s.EdgeCloud(1).TransferTime(n); near >= far {
		t.Errorf("same-site uplink %v not shorter than cross-country %v", near, far)
	}
	if s.Peer(0, 0) != nil || s.Peer(1, 1) != nil {
		t.Error("peer mesh has a diagonal")
	}
	if s.Peer(0, 1) == nil || s.Peer(1, 0) == nil {
		t.Error("peer mesh missing an off-diagonal path")
	}

	clk := vclock.NewSim()
	clk.Run(func() { s.ClientEdge(0).Send(clk, 1000) })
	if b, m := s.ClientEdge(0).Traffic(); b != 1000 || m != 1 {
		t.Errorf("traffic = (%d, %d), want (1000, 1)", b, m)
	}
	if st := s.Stats(); st.Bytes != 1000 || st.Messages != 1 {
		t.Errorf("stats = %+v", st)
	}
}
