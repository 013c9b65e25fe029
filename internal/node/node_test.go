package node

import (
	"testing"

	"croesus/internal/lock"
	"croesus/internal/store"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
)

func TestParseProtocol(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want twopc.Protocol
	}{
		{"", twopc.MSIA},
		{"ms-ia", twopc.MSIA},
		{"ms-sr", twopc.MSSR},
	} {
		got, err := ParseProtocol(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseProtocol("2pl"); err == nil {
		t.Error(`ParseProtocol("2pl") accepted an unknown protocol`)
	}
}

// TestNewOverBindsStack checks that NewOver wires the protocol's CC and the
// manager over exactly the store and lock manager it was handed.
func TestNewOverBindsStack(t *testing.T) {
	clk := vclock.NewSim()
	st, locks := store.New(), lock.NewManager(clk)

	sr := NewOver(clk, st, locks, twopc.MSSR)
	if sr.Store != st || sr.Locks != locks || sr.Mgr.Store != st || sr.Mgr.Locks != locks {
		t.Fatal("MS-SR assembly is not over the store and locks passed in")
	}
	cc, ok := sr.CC.(*txn.MSSR)
	if !ok {
		t.Fatalf("MS-SR assembly CC = %T, want *txn.MSSR", sr.CC)
	}
	if cc.Policy != txn.Wait || cc.M != sr.Mgr {
		t.Errorf("MS-SR CC = {Policy: %v, M bound: %v}, want wait-die over the assembly's manager", cc.Policy, cc.M == sr.Mgr)
	}

	ia := NewOver(clk, st, locks, twopc.MSIA)
	if ia.Store != st || ia.Locks != locks || ia.Mgr.Store != st || ia.Mgr.Locks != locks {
		t.Fatal("MS-IA assembly is not over the store and locks passed in")
	}
	if cc, ok := ia.CC.(*txn.MSIA); !ok || cc.M != ia.Mgr {
		t.Fatalf("MS-IA assembly CC = %T, want *txn.MSIA over the assembly's manager", ia.CC)
	}
}
