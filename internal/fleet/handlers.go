package fleet

import (
	"fmt"

	"croesus/internal/tcpnet"
	"croesus/internal/wire"
)

// EdgeHandlers wires an edge server to the control protocol. quit runs
// (in its own goroutine) when a quit op arrives — the process's
// graceful-shutdown trigger.
func EdgeHandlers(id string, srv *tcpnet.EdgeServer, quit func()) *Handler {
	h := NewHandler("edge")
	h.On(OpReport, func(wire.Control) (any, error) {
		return snapshotEdge(id, srv), nil
	})
	h.On(OpDrain, func(wire.Control) (any, error) {
		srv.SetDraining(true)
		return nil, nil
	})
	h.On(OpLink, func(c wire.Control) (any, error) {
		return nil, srv.SetPathDown(c.Path, c.Down)
	})
	h.On(OpCheckpoint, func(wire.Control) (any, error) {
		return nil, srv.CheckpointWAL()
	})
	h.On(OpVerify, func(wire.Control) (any, error) {
		n, err := srv.VerifyWAL()
		if err != nil {
			return nil, fmt.Errorf("durability (%d records): %w", n, err)
		}
		return map[string]int{"records": n}, nil
	})
	registerQuit(h, quit)
	return h
}

// snapshotEdge builds the edge's control-channel report.
func snapshotEdge(id string, srv *tcpnet.EdgeServer) EdgeReport {
	r := EdgeReport{
		Edge:        id,
		Served:      srv.Served(),
		Shed:        srv.Shed(),
		Dropped:     srv.Dropped(),
		WALReplayed: srv.WALReplayed(),
		Draining:    srv.Draining(),
		Txn:         srv.Manager().Stats(),
	}
	if st := srv.Manager().Store; st != nil {
		r.StoreKeys = st.Len()
	}
	return r
}

// CloudHandlers wires the cloud server to the control protocol.
func CloudHandlers(srv *tcpnet.CloudServer, quit func()) *Handler {
	h := NewHandler("cloud")
	h.On(OpReport, func(wire.Control) (any, error) {
		return CloudReport{
			Handled: srv.Handled(),
			Shed:    srv.Shed(),
			Batcher: srv.BatcherStats(),
		}, nil
	})
	registerQuit(h, quit)
	return h
}

// ClientHandlers wires a camera stream to the control protocol; a quit op
// stops the stream, which ends the client's run.
func ClientHandlers(cs *CamStream) *Handler {
	h := NewHandler("client")
	h.On(OpReport, func(wire.Control) (any, error) {
		return cs.Report(), nil
	})
	h.On(OpRate, func(c wire.Control) (any, error) {
		if c.Rate <= 0 {
			return nil, fmt.Errorf("rate must be > 0, got %g", c.Rate)
		}
		cs.SetRate(c.Rate)
		return nil, nil
	})
	h.On(OpRedial, func(c wire.Control) (any, error) {
		if c.Addr == "" {
			return nil, fmt.Errorf("redial needs an addr")
		}
		cs.Redial(c.Addr)
		return nil, nil
	})
	registerQuit(h, cs.Stop)
	return h
}

func registerQuit(h *Handler, quit func()) {
	h.On(OpQuit, func(wire.Control) (any, error) {
		go quit()
		return nil, nil
	})
}
