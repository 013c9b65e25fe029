// Package node is the shared fleet-node assembly layer: the storage and
// transaction stack every Croesus edge runs, whatever delivers its frames.
// Both deployments build on it — internal/cluster assembles its simulated
// edge nodes here, and internal/tcpnet its real TCP edge servers — so
// protocol selection and the store/locks/manager wiring exist exactly once
// instead of being duplicated per deployment.
package node

import (
	"fmt"

	"croesus/internal/lock"
	"croesus/internal/store"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
)

// ParseProtocol reads the command-line spelling: "ms-ia" or "ms-sr".
func ParseProtocol(s string) (twopc.Protocol, error) {
	switch s {
	case "", "ms-ia":
		return twopc.MSIA, nil
	case "ms-sr":
		return twopc.MSSR, nil
	default:
		return twopc.MSIA, fmt.Errorf("node: unknown protocol %q (want ms-ia or ms-sr)", s)
	}
}

// Assembly is one standalone edge node's data stack: its store, lock
// manager, transaction manager, and the protocol's concurrency control.
// Sharded fleets replace Mgr/CC with fleet-wide machinery (twopc) but keep
// the same Store and Locks underneath.
type Assembly struct {
	Store *store.Store
	Locks *lock.Manager
	Mgr   *txn.Manager
	CC    txn.CC
}

// New assembles a fresh edge node on clk.
func New(clk vclock.Clock, p twopc.Protocol) *Assembly {
	return NewOver(clk, store.New(), lock.NewManager(clk), p)
}

// NewOver assembles an edge node over an existing store and lock manager —
// how the cluster runtime reuses the stores it pre-provisioned per edge.
func NewOver(clk vclock.Clock, st *store.Store, locks *lock.Manager, p twopc.Protocol) *Assembly {
	mgr := txn.NewManager(clk, st, locks)
	var cc txn.CC
	if p == twopc.MSSR {
		cc = &txn.MSSR{M: mgr, Policy: txn.Wait}
	} else {
		cc = &txn.MSIA{M: mgr}
	}
	return &Assembly{Store: st, Locks: locks, Mgr: mgr, CC: cc}
}
