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
	"croesus/internal/txn"
	"croesus/internal/vclock"
)

// Protocol selects the multi-stage concurrency-control protocol an edge
// node runs its transactions under. The zero value is MS-IA, the paper's
// default.
type Protocol int

// Multi-stage protocols.
const (
	// MSIA is multi-stage invariant confluence with apologies: each
	// section locks (and commits) its own set; erroneous initial commits
	// are repaired by retraction cascades and apologies.
	MSIA Protocol = iota
	// MSSR is multi-stage serializability: both sections' locks are held
	// from the initial commit to the final commit, across the cloud round
	// trip, with one atomic commitment at the final.
	MSSR
)

func (p Protocol) String() string {
	if p == MSSR {
		return "MS-SR"
	}
	return "MS-IA"
}

// ParseProtocol reads the command-line spelling: "ms-ia" or "ms-sr".
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "", "ms-ia":
		return MSIA, nil
	case "ms-sr":
		return MSSR, nil
	default:
		return MSIA, fmt.Errorf("node: unknown protocol %q (want ms-ia or ms-sr)", s)
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
func New(clk vclock.Clock, p Protocol) *Assembly {
	return NewOver(clk, store.New(), lock.NewManager(clk), p)
}

// NewOver assembles an edge node over an existing store and lock manager —
// how the cluster runtime reuses the stores it pre-provisioned per edge.
func NewOver(clk vclock.Clock, st *store.Store, locks *lock.Manager, p Protocol) *Assembly {
	mgr := txn.NewManager(clk, st, locks)
	var cc txn.CC
	if p == MSSR {
		cc = &txn.MSSR{M: mgr, Policy: txn.Wait}
	} else {
		cc = &txn.MSIA{M: mgr}
	}
	return &Assembly{Store: st, Locks: locks, Mgr: mgr, CC: cc}
}
