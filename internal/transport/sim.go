package transport

import (
	"fmt"

	"croesus/internal/netsim"
)

// Sim is the simulated transport: every path is a netsim.Link with the
// standard fleet topology (clients adjacent to their edge, a cross-country
// — or same-site — cloud uplink per edge, a metro peer mesh), charging
// modeled transfer time on the fleet's clock.
type Sim struct {
	clientEdge []*netsim.Link
	edgeCloud  []*netsim.Link
	peers      [][]*netsim.Link
}

// NewSim returns an unprovisioned simulated transport.
func NewSim() *Sim { return &Sim{} }

// Name returns "sim".
func (s *Sim) Name() string { return "sim" }

// Provision builds the fleet's links.
func (s *Sim) Provision(edges []EdgeProfile) error {
	if len(edges) == 0 {
		return fmt.Errorf("transport: no edges to provision")
	}
	n := len(edges)
	s.clientEdge = make([]*netsim.Link, n)
	s.edgeCloud = make([]*netsim.Link, n)
	s.peers = make([][]*netsim.Link, n)
	for i, e := range edges {
		ce := netsim.ClientEdgeLink()
		ce.Name = "client-" + e.ID
		s.clientEdge[i] = ce
		ec := netsim.EdgeCloudCrossCountry()
		if e.SameSite {
			ec = netsim.EdgeCloudSameSite()
		}
		ec.Name = e.ID + "-cloud"
		s.edgeCloud[i] = ec
		s.peers[i] = make([]*netsim.Link, n)
		for j := range edges {
			if j == i {
				continue
			}
			l := netsim.EdgeEdgeLink()
			l.Name = e.ID + "-" + edges[j].ID
			s.peers[i][j] = l
		}
	}
	return nil
}

// ClientEdge returns edge i's client→edge link.
func (s *Sim) ClientEdge(i int) Path { return s.clientEdge[i] }

// EdgeCloud returns edge i's cloud uplink.
func (s *Sim) EdgeCloud(i int) Path { return s.edgeCloud[i] }

// Peer returns edge from's one-way link to edge to (nil on the diagonal).
func (s *Sim) Peer(from, to int) Path {
	if l := s.peers[from][to]; l != nil {
		return l
	}
	return nil
}

// Stats aggregates link traffic.
func (s *Sim) Stats() Stats {
	var st Stats
	add := func(l *netsim.Link) {
		if l == nil {
			return
		}
		b, m := l.Traffic()
		st.Bytes += b
		st.Messages += m
	}
	for i := range s.clientEdge {
		add(s.clientEdge[i])
		add(s.edgeCloud[i])
		for _, l := range s.peers[i] {
			add(l)
		}
	}
	return st
}

// Close is a no-op.
func (s *Sim) Close() error { return nil }
