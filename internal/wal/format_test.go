package wal

import (
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"croesus/internal/store"
)

// formatGolden pins the on-disk bytes of one record of each op, in the
// order TestAppendBatchFormatPinned appends them: header (payload length,
// CRC32), then op, txn, round, coord, key length, key and, for puts, the
// value. A log written by any earlier build must stay readable, so a
// change here is a format break, not a refactor.
var formatGolden = []struct {
	rec Record
	hex string
}{
	{Record{Op: OpPut, Txn: 7, Round: 1, Key: "s1/item:3", Value: store.StringValue("v1")},
		"1d00000005aceebd01070000000000000001000000000900000073312f6974656d3a337631"},
	{Record{Op: OpDelete, Txn: 7, Round: 1, Key: "s1/item:4"},
		"1b0000008b2b99a502070000000000000001000000000900000073312f6974656d3a34"},
	{Record{Op: OpPrepare, Txn: 7, Round: 1, Coord: 2},
		"120000005a7d51f8030700000000000000010200000000000000"},
	{Record{Op: OpCommit, Txn: 7, Round: 1},
		"1200000043705a5b040700000000000000010000000000000000"},
	{Record{Op: OpAbort, Txn: 1<<40 + 9, Round: 0},
		"120000001866f279050900000000010000000000000000000000"},
	{Record{Op: OpDelivered, Txn: 7, Round: 1},
		"12000000c01b8e5e060700000000000000010000000000000000"},
	{Record{Op: OpEnd, Txn: 7, Round: 1},
		"1200000021addcb1070700000000000000010000000000000000"},
}

// TestAppendBatchFormatPinned writes one batch holding a record of each op
// and compares the file byte for byte against formatGolden, then checks
// that Replay decodes every record back.
func TestAppendBatchFormatPinned(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.NoSync = true
	recs := make([]Record, len(formatGolden))
	var want strings.Builder
	for i, g := range formatGolden {
		recs[i] = g.rec
		want.WriteString(g.hex)
	}
	if err := l.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != want.String() {
		t.Errorf("AppendBatch wrote\n%s\nwant\n%s", got, want.String())
	}
	if l.Size() != int64(len(raw)) {
		t.Errorf("Size() = %d, file holds %d bytes", l.Size(), len(raw))
	}

	var got []Record
	if _, truncated, err := Replay(path, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil || truncated {
		t.Fatalf("Replay: truncated %v, err %v", truncated, err)
	}
	if len(got) != len(recs) {
		t.Fatalf("Replay decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Errorf("record %d decoded as %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestPinnedBytesRecover replays the pinned rows of the ops every earlier
// build wrote (put through abort), concatenated into one log, and finds the
// state those builds recovered: the prepared block applied at its commit,
// both outcomes recorded, and the commit kept as a coordinator's decision
// (conservatively: it closes a prepared block, so it may be one).
func TestPinnedBytesRecover(t *testing.T) {
	var raw []byte
	for _, g := range formatGolden {
		if g.rec.Op > OpAbort {
			continue
		}
		b, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, b...)
	}
	path := tmpLog(t)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 5 || res.Truncated || len(res.InDoubt) != 0 || res.Incomplete != 0 {
		t.Errorf("replay: %d records, truncated %v, in doubt %v, incomplete %d; want 5 clean records",
			res.Records, res.Truncated, res.InDoubt, res.Incomplete)
	}
	if snap := res.Store.Snapshot(); len(snap) != 1 || string(snap["s1/item:3"]) != "v1" {
		t.Errorf("store = %v, want only s1/item:3 = v1", snap)
	}
	committed, aborted := TxnRound{Txn: 7, Round: 1}, TxnRound{Txn: 1<<40 + 9}
	if want := map[TxnRound]bool{committed: true, aborted: false}; !reflect.DeepEqual(res.Decisions, want) {
		t.Errorf("decisions = %v, want %v", res.Decisions, want)
	}
	if !reflect.DeepEqual(res.Decided, []TxnRound{committed}) {
		t.Errorf("decided = %v, want [%v]", res.Decided, committed)
	}
}

// TestAppendBatchSteadyStateAllocsNothing: once the log's frame buffer has
// grown to the largest record, appending a batch allocates nothing.
func TestAppendBatchSteadyStateAllocsNothing(t *testing.T) {
	l, err := Open(tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.NoSync = true
	recs := make([]Record, len(formatGolden))
	for i, g := range formatGolden {
		recs[i] = g.rec
	}
	if err := l.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := l.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state AppendBatch allocates %v times, want 0", n)
	}
}

// Concurrent appenders share the log's frame buffer under its lock: every
// record replays intact and the size matches the file (run under -race).
func TestConcurrentAppendBatch(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.NoSync = true
	const writers, batches = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				recs := []Record{
					{Op: OpPut, Txn: uint64(w + 1), Key: strings.Repeat("k", b+1), Value: store.Int64Value(int64(b))},
					{Op: OpCommit, Txn: uint64(w + 1)},
				}
				if err := l.AppendBatch(recs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n, truncated, err := Replay(path, func(Record) error { return nil })
	if err != nil || truncated || n != writers*batches*2 {
		t.Errorf("replayed %d records (truncated %v, err %v), want %d", n, truncated, err, writers*batches*2)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != l.Size() {
		t.Errorf("file size %v (err %v), Size() %d", st.Size(), err, l.Size())
	}
}
