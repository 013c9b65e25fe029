package wal

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"croesus/internal/store"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "partition.wal")
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpPut, Key: "a", Value: store.StringValue("1")},
		{Op: OpPut, Key: "b", Value: store.StringValue("two")},
		{Op: OpDelete, Key: "a"},
		{Op: OpPut, Key: "c", Value: nil},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	n, truncated, err := Replay(path, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("clean log reported truncation")
	}
	if n != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Key != want[i].Key || string(got[i].Value) != string(want[i].Value) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRecoverRebuildsStore(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	l.AppendBatch([]Record{
		{Op: OpPut, Key: "x", Value: store.Int64Value(1)},
		{Op: OpPut, Key: "y", Value: store.Int64Value(2)},
		{Op: OpPut, Key: "x", Value: store.Int64Value(10)}, // overwrite
		{Op: OpDelete, Key: "y"},
	})
	l.Close()

	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 4 || res.Truncated {
		t.Errorf("n=%d truncated=%v", res.Records, res.Truncated)
	}
	if v, _ := res.Store.Get("x"); store.AsInt64(v) != 10 {
		t.Errorf("x = %d", store.AsInt64(v))
	}
	if _, ok := res.Store.Get("y"); ok {
		t.Error("deleted key y survived recovery")
	}
}

func TestRecoverMissingFile(t *testing.T) {
	res, err := Recover(filepath.Join(t.TempDir(), "never-created.wal"))
	if err != nil || res.Records != 0 || res.Truncated {
		t.Fatalf("missing log: %+v err=%v", res, err)
	}
	if res.Store.Len() != 0 {
		t.Error("store not empty")
	}
}

func TestTornTailTruncatedAndRecoverable(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	l.Append(Record{Op: OpPut, Key: "keep", Value: store.StringValue("v")})
	l.Append(Record{Op: OpPut, Key: "keep2", Value: store.StringValue("v2")})
	l.Close()
	intact, _ := os.Stat(path)

	// Crash mid-append: half a record lands on disk.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{9, 0, 0, 0, 0xde, 0xad}) // partial header+garbage
	f.Close()

	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 || !res.Truncated {
		t.Fatalf("n=%d truncated=%v, want 2 records and a truncation", res.Records, res.Truncated)
	}
	if _, ok := res.Store.Get("keep"); !ok {
		t.Error("intact record lost")
	}
	// The file must be back to its intact size and appendable.
	after, _ := os.Stat(path)
	if after.Size() != intact.Size() {
		t.Errorf("size after truncation %d, want %d", after.Size(), intact.Size())
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(Record{Op: OpPut, Key: "new", Value: nil}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	res2, _ := Recover(path)
	if res2.Records != 3 || res2.Truncated {
		t.Errorf("after re-append: n=%d truncated=%v", res2.Records, res2.Truncated)
	}
}

func TestCorruptedMiddleDetected(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	l.Append(Record{Op: OpPut, Key: "aaaa", Value: store.StringValue("11111111")})
	l.Append(Record{Op: OpPut, Key: "bbbb", Value: store.StringValue("22222222")})
	l.Close()

	// Flip a payload byte inside the FIRST record: its CRC fails. Replay
	// treats it as a torn tail at offset 0 and truncates everything —
	// lost data is reported via the truncation offset.
	data, _ := os.ReadFile(path)
	data[10] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	n, truncated, err := Replay(path, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("replayed %d records from a log with a corrupt head", n)
	}
	if !truncated {
		t.Error("corrupt head not reported as truncation")
	}
}

func TestLoggedStoreWritesThrough(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	// Write-ahead in the strict sense: journal the mutation, then apply it.
	st := store.New()
	if err := l.Append(Record{Op: OpPut, Key: "k", Value: store.StringValue("v")}); err != nil {
		t.Fatal(err)
	}
	st.Put("k", store.StringValue("v"))
	if err := l.Append(Record{Op: OpDelete, Key: "nope"}); err != nil {
		t.Fatal(err)
	}
	st.Delete("nope")
	if v, _ := st.Get("k"); string(v) != "v" {
		t.Error("live store missing write")
	}
	l.Close()
	res, err := Recover(path)
	if err != nil || res.Records != 2 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if v, _ := res.Store.Get("k"); string(v) != "v" {
		t.Error("recovered store missing write")
	}
}

// Property: any sequence of put/delete operations recovers to exactly the
// state of an in-memory store receiving the same sequence.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	type op struct {
		Del bool
		Key uint8
		Val int64
	}
	f := func(ops []op) bool {
		dir := t.TempDir()
		path := filepath.Join(dir, "p.wal")
		l, err := Open(path)
		if err != nil {
			return false
		}
		ref := store.New()
		for _, o := range ops {
			k := store.ItoaKey("k", int(o.Key%16))
			rec := Record{Op: OpPut, Key: k, Value: store.Int64Value(o.Val)}
			if o.Del {
				rec = Record{Op: OpDelete, Key: k}
				ref.Delete(k)
			} else {
				ref.Put(k, rec.Value)
			}
			if err := l.Append(rec); err != nil {
				return false
			}
		}
		l.Close()
		res, err := Recover(path)
		if err != nil || res.Truncated {
			return false
		}
		rec := res.Store
		if rec.Len() != ref.Len() {
			return false
		}
		for _, k := range ref.Keys("") {
			rv, _ := ref.Get(k)
			gv, ok := rec.Get(k)
			if !ok || store.AsInt64(rv) != store.AsInt64(gv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRecoverTxnBlocks(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	// Txn 7: staged, prepared, committed — must apply.
	l.AppendBatch([]Record{
		{Op: OpPut, Txn: 7, Key: "a", Value: store.Int64Value(1)},
		{Op: OpPut, Txn: 7, Key: "b", Value: store.Int64Value(2)},
		{Op: OpPrepare, Txn: 7, Coord: 2},
	})
	l.Append(Record{Op: OpCommit, Txn: 7})
	// Txn 8: staged, prepared, aborted — must drop.
	l.AppendBatch([]Record{
		{Op: OpPut, Txn: 8, Key: "c", Value: store.Int64Value(3)},
		{Op: OpPrepare, Txn: 8, Coord: 0},
	})
	l.Append(Record{Op: OpAbort, Txn: 8})
	// Txn 9: staged and prepared, no decision — in-doubt.
	l.AppendBatch([]Record{
		{Op: OpDelete, Txn: 9, Key: "a"},
		{Op: OpPrepare, Txn: 9, Coord: 1},
	})
	l.Close()

	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Store.Get("a"); store.AsInt64(v) != 1 {
		t.Errorf("committed a = %v (the in-doubt delete must not apply)", v)
	}
	if v, _ := res.Store.Get("b"); store.AsInt64(v) != 2 {
		t.Errorf("committed b = %v", v)
	}
	if _, ok := res.Store.Get("c"); ok {
		t.Error("aborted txn 8's write survived recovery")
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0].Txn != 9 || res.InDoubt[0].Coord != 1 {
		t.Fatalf("in-doubt = %+v, want txn 9 coordinated by partition 1", res.InDoubt)
	}
	if len(res.InDoubt[0].Writes) != 1 || res.InDoubt[0].Writes[0].Op != OpDelete {
		t.Errorf("in-doubt writes = %+v", res.InDoubt[0].Writes)
	}
	if c, ok := res.Decisions[TxnRound{Txn: 7}]; !ok || !c {
		t.Error("commit decision for txn 7 not recovered")
	}
	if c, ok := res.Decisions[TxnRound{Txn: 8}]; !ok || c {
		t.Error("abort decision for txn 8 not recovered")
	}
}

// Only a coordinator's commit decisions come back as Decided, and an end
// record retires one: a single-partition commit (a data block closed with
// no prepare) and a participant's delivered marker are outcomes, not
// decisions anyone inquires about.
func TestRecoverKeepsUnretiredDecisionsOnly(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	l.AppendBatch([]Record{ // single-partition commit
		{Op: OpPut, Txn: 1, Key: "a", Value: store.Int64Value(1)},
		{Op: OpCommit, Txn: 1},
	})
	l.AppendBatch([]Record{ // participant block, coordinated elsewhere
		{Op: OpPut, Txn: 2, Key: "b", Value: store.Int64Value(2)},
		{Op: OpPrepare, Txn: 2, Coord: 3},
	})
	l.Append(Record{Op: OpDelivered, Txn: 2})
	l.AppendBatch([]Record{ // the coordinator's own block
		{Op: OpPut, Txn: 4, Key: "c", Value: store.Int64Value(4)},
		{Op: OpPrepare, Txn: 4, Coord: 0},
	})
	l.Append(Record{Op: OpCommit, Txn: 4}) // its decision commits it here
	l.Append(Record{Op: OpCommit, Txn: 5}) // a round it coordinates without a block
	l.Append(Record{Op: OpCommit, Txn: 6}) // ... and one it retires
	l.Append(Record{Op: OpEnd, Txn: 6})
	l.Append(Record{Op: OpEnd, Txn: 4}) // every participant logged txn 4
	l.Close()

	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]int64{"a": 1, "b": 2, "c": 4} {
		if v, ok := res.Store.Get(k); !ok || store.AsInt64(v) != want {
			t.Errorf("%s = %v %v, want %d", k, v, ok, want)
		}
	}
	if want := []TxnRound{{Txn: 5}}; len(res.Decided) != 1 || res.Decided[0] != want[0] {
		t.Errorf("decided = %v, want %v", res.Decided, want)
	}
	for _, txn := range []uint64{1, 2, 4, 5, 6} {
		if !res.Decisions[TxnRound{Txn: txn}] {
			t.Errorf("txn %d's commit outcome missing from Decisions", txn)
		}
	}
	d, err := Decisions(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d[TxnRound{Txn: 6}]; ok {
		t.Error("an inquiry still finds retired txn 6")
	}
	if !d[TxnRound{Txn: 5}] {
		t.Error("an inquiry misses txn 5's decision")
	}
}

// One multi-stage transaction runs two independent commit rounds. A
// committed initial round must never answer for an in-doubt final round:
// recovery keys blocks and decisions by (txn, round), so the final-round
// block stays in doubt (and its writes stay unapplied) even though the
// same transaction id carries a commit marker from round 0.
func TestRecoverRoundsAreIndependent(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	// Round 0 (initial commit): prepared and committed.
	l.AppendBatch([]Record{
		{Op: OpPut, Txn: 5, Round: 0, Key: "a", Value: store.Int64Value(1)},
		{Op: OpPrepare, Txn: 5, Round: 0, Coord: 2},
	})
	l.Append(Record{Op: OpCommit, Txn: 5, Round: 0})
	// Round 1 (final commit): prepared, no decision — the coordinator
	// crashed before deciding.
	l.AppendBatch([]Record{
		{Op: OpPut, Txn: 5, Round: 1, Key: "a", Value: store.Int64Value(2)},
		{Op: OpPrepare, Txn: 5, Round: 1, Coord: 2},
	})
	l.Close()

	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Store.Get("a"); store.AsInt64(v) != 1 {
		t.Errorf("a = %v, want round 0's committed value 1 (round 1 is undecided)", v)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0].Txn != 5 || res.InDoubt[0].Round != 1 {
		t.Fatalf("in-doubt = %+v, want txn 5 round 1", res.InDoubt)
	}
	if c, ok := res.Decisions[TxnRound{Txn: 5, Round: 0}]; !ok || !c {
		t.Error("round 0's commit decision not recovered")
	}
	if _, ok := res.Decisions[TxnRound{Txn: 5, Round: 1}]; ok {
		t.Error("round 1 has a decision despite the coordinator never deciding it")
	}
	// The decision scan an inquiring participant runs must make the same
	// distinction.
	d, err := Decisions(path)
	if err != nil {
		t.Fatal(err)
	}
	if !d[TxnRound{Txn: 5, Round: 0}] {
		t.Error("Decisions lost round 0's commit")
	}
	if _, ok := d[TxnRound{Txn: 5, Round: 1}]; ok {
		t.Error("Decisions resolved round 1 from round 0's marker")
	}
}

// A journal record written after a block staged (a retraction's restore,
// compensating while the block was in doubt) supersedes the staged write:
// a late commit marker must not re-apply it, and the in-doubt report must
// omit it — otherwise a deferred resolution resurrects compensated state.
func TestSupersededStagedWritesDoNotResurface(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	// Txn 1: staged k=1 and other=5, then a journal delete of k landed
	// (retraction restore), then the commit marker (deferred resolution).
	l.AppendBatch([]Record{
		{Op: OpPut, Txn: 1, Key: "k", Value: store.Int64Value(1)},
		{Op: OpPut, Txn: 1, Key: "other", Value: store.Int64Value(5)},
		{Op: OpPrepare, Txn: 1, Coord: 0},
	})
	l.Append(Record{Op: OpDelete, Key: "k"}) // journaled compensation
	l.Append(Record{Op: OpCommit, Txn: 1})
	// Txn 2: staged j=2, journal overwrote j, still in doubt.
	l.AppendBatch([]Record{
		{Op: OpPut, Txn: 2, Key: "j", Value: store.Int64Value(2)},
		{Op: OpPut, Txn: 2, Key: "keep", Value: store.Int64Value(7)},
		{Op: OpPrepare, Txn: 2, Coord: 1},
	})
	l.Append(Record{Op: OpPut, Key: "j", Value: store.Int64Value(9)})
	l.Close()

	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Store.Get("k"); ok {
		t.Error("committed block resurrected k over the later journal delete")
	}
	if v, _ := res.Store.Get("other"); store.AsInt64(v) != 5 {
		t.Errorf("other = %v, want the unsuperseded staged write 5", v)
	}
	if v, _ := res.Store.Get("j"); store.AsInt64(v) != 9 {
		t.Errorf("j = %v, want the journal's 9 (txn 2 undecided)", v)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0].Txn != 2 {
		t.Fatalf("in-doubt = %+v, want txn 2", res.InDoubt)
	}
	// The in-doubt block's reported writes drop the superseded j, keep
	// the untouched key — so a later commit delivery agrees with replay.
	ws := res.InDoubt[0].Writes
	if len(ws) != 1 || ws[0].Key != "keep" {
		t.Errorf("in-doubt writes = %+v, want only the unsuperseded %q", ws, "keep")
	}
}

// A crash mid-commit leaves data records without their prepare/commit
// marker on the tail; recovery must drop them — presumed abort.
func TestTornTailMidCommitPresumedAbort(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	l.AppendBatch([]Record{
		{Op: OpPut, Txn: 3, Key: "x", Value: store.Int64Value(1)},
		{Op: OpPrepare, Txn: 3, Coord: 0},
		{Op: OpCommit, Txn: 3},
	})
	// Txn 4's batch was being appended when the machine died: its data
	// records landed, the commit marker did not.
	l.AppendBatch([]Record{
		{Op: OpPut, Txn: 4, Key: "x", Value: store.Int64Value(99)},
		{Op: OpPut, Txn: 4, Key: "y", Value: store.Int64Value(100)},
	})
	l.Close()

	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 1 {
		t.Errorf("incomplete = %d, want 1 presumed-abort block", res.Incomplete)
	}
	if len(res.InDoubt) != 0 {
		t.Errorf("unprepared block reported in-doubt: %+v", res.InDoubt)
	}
	if v, _ := res.Store.Get("x"); store.AsInt64(v) != 1 {
		t.Errorf("x = %v, want txn 3's committed value 1", v)
	}
	if _, ok := res.Store.Get("y"); ok {
		t.Error("uncommitted y applied")
	}
}

func TestDecisionsScan(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	l.Append(Record{Op: OpPut, Key: "noise", Value: store.Int64Value(0)})
	l.Append(Record{Op: OpCommit, Txn: 11})
	l.Append(Record{Op: OpAbort, Txn: 12})
	l.Close()
	d, err := Decisions(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || !d[TxnRound{Txn: 11}] || d[TxnRound{Txn: 12}] {
		t.Errorf("decisions = %v", d)
	}
	if _, ok := d[TxnRound{Txn: 13}]; ok {
		t.Error("unknown txn has a decision")
	}
}

func TestProbeSizesRecovery(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path)
	l.Append(Record{Op: OpPut, Key: "plain", Value: store.Int64Value(0)})
	l.AppendBatch([]Record{ // committed block: not in doubt
		{Op: OpPut, Txn: 5, Key: "a", Value: store.Int64Value(1)},
		{Op: OpPrepare, Txn: 5, Coord: 2},
		{Op: OpCommit, Txn: 5},
	})
	l.AppendBatch([]Record{ // prepared, undecided: in doubt, coord 1
		{Op: OpPut, Txn: 6, Key: "b", Value: store.Int64Value(2)},
		{Op: OpPrepare, Txn: 6, Coord: 1},
	})
	l.AppendBatch([]Record{ // data without prepare: incomplete, not in doubt
		{Op: OpPut, Txn: 7, Key: "c", Value: store.Int64Value(3)},
	})
	l.Close()

	records, inDoubt, err := Probe(path)
	if err != nil {
		t.Fatal(err)
	}
	if records != 7 {
		t.Errorf("records = %d, want 7", records)
	}
	if len(inDoubt) != 1 || inDoubt[0].Txn != 6 || inDoubt[0].Coord != 1 {
		t.Errorf("in-doubt = %+v, want txn 6 under coord 1", inDoubt)
	}
	// Probe must agree with Recover on what is in doubt.
	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InDoubt) != len(inDoubt) {
		t.Errorf("Probe found %d in-doubt, Recover %d", len(inDoubt), len(res.InDoubt))
	}
}
