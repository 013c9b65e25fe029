// Package wal provides a write-ahead log for the edge node's data store,
// so an edge machine can crash and recover its partition without losing
// committed state. The paper's system model places "the main copy of its
// partition's data" on the edge node; a production deployment of that
// design needs exactly this durability layer.
//
// Format: each record is
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of payload][payload]
//
// where the payload is op (1 byte), the owning transaction id (8 bytes,
// 0 for non-transactional records), the commit round (1 byte), the
// coordinating partition (4 bytes, meaningful on prepare records), key
// length (4 bytes), key, and — for puts — the value. Replay stops cleanly
// at a torn tail (partial record or CRC mismatch from a crash mid-write)
// and truncates it, which is the standard recovery contract.
//
// Beyond plain put/delete, the log carries the two-phase-commit life cycle
// of the sharded fleet (internal/twopc): a participant stages a
// transaction's writes as data records followed by an OpPrepare marker; the
// decision lands as an OpCommit or OpAbort marker (on the coordinator's own
// log the OpCommit doubles as the durable commit decision). One multi-stage
// transaction runs up to two independent atomic-commitment rounds (the
// initial and the final commit), so every transactional record also names
// its round, and recovery tracks blocks and decisions by (txn, round) —
// a final-round block must never resolve from the initial round's marker.
// Recovery applies only decided rounds; a prepared-but-undecided block is
// reported as in-doubt for the caller to resolve against the coordinator's
// log, and a data block with neither prepare nor decision (a torn tail
// mid-commit) is dropped — presumed abort.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"

	"croesus/internal/store"
)

// Op is a logged operation kind.
type Op byte

// Logged operation kinds. OpPut and OpDelete are data records; OpPrepare,
// OpCommit, and OpAbort are two-phase-commit markers carrying only a
// transaction id (and, for OpPrepare, the coordinating partition).
const (
	OpPut     Op = 1
	OpDelete  Op = 2
	OpPrepare Op = 3
	OpCommit  Op = 4
	OpAbort   Op = 5
)

// Record is one logged entry.
type Record struct {
	Op Op
	// Txn is the owning transaction. Data records with Txn 0 are
	// non-transactional: recovery applies them immediately in log order.
	Txn uint64
	// Round is the transaction's atomic-commitment round this record
	// belongs to. A multi-stage transaction commits up to twice (initial
	// and final section), and the rounds are independent 2PC instances:
	// blocks and decisions are tracked per (Txn, Round).
	Round uint8
	// Coord is the partition coordinating the transaction's atomic
	// commitment; it is written on OpPrepare records so recovery knows
	// whose log to inquire for an in-doubt transaction.
	Coord int
	Key   string
	Value store.Value
}

// TxnRound identifies one atomic-commitment round of one transaction —
// the unit blocks and decisions are keyed by throughout recovery.
type TxnRound struct {
	Txn   uint64
	Round uint8
}

// TxnRound returns the record's (txn, round) key.
func (r Record) TxnRound() TxnRound { return TxnRound{Txn: r.Txn, Round: r.Round} }

// Less orders keys by transaction id, then round.
func (k TxnRound) Less(o TxnRound) bool {
	if k.Txn != o.Txn {
		return k.Txn < o.Txn
	}
	return k.Round < o.Round
}

// ErrCorrupt reports a damaged (non-tail) log.
var ErrCorrupt = errors.New("wal: corrupt record")

// Log is an append-only write-ahead log. Appends are serialized and
// fsynced per batch.
type Log struct {
	// NoSync skips the per-batch fsync — for simulations, where the log's
	// job is crash modeling inside one process, not surviving a real power
	// cut. Set before first use.
	NoSync bool

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string
	size int64
}

// Open opens (creating if needed) the log at path, ready for appends.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, w: bufio.NewWriter(f), path: path, size: st.Size()}, nil
}

// Append logs one record durably (buffered write + flush + fsync).
func (l *Log) Append(rec Record) error {
	return l.AppendBatch([]Record{rec})
}

// AppendBatch logs several records with a single flush and fsync — the
// natural unit is a transaction section's write set.
func (l *Log) AppendBatch(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range recs {
		payload := encodePayload(rec)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := l.w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := l.w.Write(payload); err != nil {
			return err
		}
		l.size += int64(8 + len(payload))
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.NoSync {
		return nil
	}
	return l.f.Sync()
}

// Size returns the log's current byte size.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Path returns the file the log appends to.
func (l *Log) Path() string { return l.path }

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// payload layout: op(1) txn(8) round(1) coord(4) klen(4) key value.
const payloadHeader = 1 + 8 + 1 + 4 + 4

func encodePayload(rec Record) []byte {
	n := payloadHeader + len(rec.Key)
	if rec.Op == OpPut {
		n += len(rec.Value)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, byte(rec.Op))
	var num [8]byte
	binary.LittleEndian.PutUint64(num[:], rec.Txn)
	buf = append(buf, num[:]...)
	buf = append(buf, rec.Round)
	binary.LittleEndian.PutUint32(num[:4], uint32(rec.Coord))
	buf = append(buf, num[:4]...)
	binary.LittleEndian.PutUint32(num[:4], uint32(len(rec.Key)))
	buf = append(buf, num[:4]...)
	buf = append(buf, rec.Key...)
	if rec.Op == OpPut {
		buf = append(buf, rec.Value...)
	}
	return buf
}

func decodePayload(payload []byte) (Record, error) {
	if len(payload) < payloadHeader {
		return Record{}, ErrCorrupt
	}
	op := Op(payload[0])
	if op < OpPut || op > OpAbort {
		return Record{}, fmt.Errorf("%w: bad op %d", ErrCorrupt, op)
	}
	rec := Record{
		Op:    op,
		Txn:   binary.LittleEndian.Uint64(payload[1:9]),
		Round: payload[9],
		Coord: int(binary.LittleEndian.Uint32(payload[10:14])),
	}
	klen := int(binary.LittleEndian.Uint32(payload[14:18]))
	if klen < 0 || payloadHeader+klen > len(payload) {
		return Record{}, fmt.Errorf("%w: bad key length %d", ErrCorrupt, klen)
	}
	rec.Key = string(payload[payloadHeader : payloadHeader+klen])
	if op == OpPut {
		rec.Value = store.Value(payload[payloadHeader+klen:]).Clone()
	} else if payloadHeader+klen != len(payload) {
		return Record{}, fmt.Errorf("%w: trailing bytes on %d record", ErrCorrupt, op)
	}
	return rec, nil
}

// Replay reads every intact record from the log at path, invoking fn in
// order. A torn tail (a partial record or CRC mismatch from a crash
// mid-append) is detected, reported via truncated, and removed so
// subsequent appends start clean. A record that decodes to an invalid
// structure despite a matching CRC returns ErrCorrupt.
func Replay(path string, fn func(Record) error) (records int, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, false, nil
		}
		return 0, false, err
	}

	r := bufio.NewReader(f)
	var offset int64
	tornTail := func() (int, bool, error) {
		f.Close()
		return records, true, os.Truncate(path, offset)
	}
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				f.Close()
				return records, false, nil // clean end
			}
			return tornTail() // partial header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > 64<<20 {
			return tornTail()
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return tornTail()
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return tornTail()
		}
		rec, err := decodePayload(payload)
		if err != nil {
			f.Close()
			return records, false, err
		}
		if err := fn(rec); err != nil {
			f.Close()
			return records, false, err
		}
		records++
		offset += int64(8 + len(payload))
	}
}

// InDoubt is a prepared-but-undecided commit round found during recovery:
// the participant voted yes and crashed (or its coordinator did) before the
// decision reached its log. The caller resolves it against the
// coordinator's log — presumed abort when no commit decision exists there
// for this exact (txn, round); a decision the same transaction logged in
// its other commit round does not count.
type InDoubt struct {
	Txn   uint64
	Round uint8
	Coord int
	// Writes are the staged data records still live, in log order: a
	// write whose key a later log record overwrote (a retraction restore
	// journaled while the block was undecided) is superseded and omitted,
	// so committing the block cannot resurrect compensated state.
	Writes []Record
}

// RecoverResult is everything recovery learns from one partition's log.
type RecoverResult struct {
	// Store holds the recovered committed state.
	Store *store.Store
	// Records is the number of intact records replayed.
	Records int
	// Truncated reports that a torn tail was removed.
	Truncated bool
	// InDoubt lists prepared-but-undecided commit rounds, ascending by
	// (txn, round).
	InDoubt []InDoubt
	// Incomplete counts commit rounds whose data records reached the log
	// but whose prepare/commit marker did not (a crash mid-commit). Their
	// writes are dropped: presumed abort.
	Incomplete int
	// Decisions maps (txn, round) to the logged outcome (true = commit).
	// On a coordinator's log these are the durable decisions an in-doubt
	// participant inquires about.
	Decisions map[TxnRound]bool
}

// Recover rebuilds a partition from the log at path. Non-transactional data
// records (Txn 0) apply in log order; transactional blocks apply only when
// their round's commit marker was logged, are dropped on an abort marker or
// a missing prepare, and are reported in-doubt when prepared but undecided.
//
// A staged write's logical position is its DATA record (the value was read
// under the section's locks at staging time; the decision marker only
// validates it), so last-writer-wins is resolved by data-record order, not
// marker order: a write whose key a later record already overwrote — e.g.
// a retraction's restore, journaled while the block was undecided — is
// superseded. It neither applies at the (tail-positioned) commit marker
// nor appears in the block's reported InDoubt writes, so a deferred
// resolution can't resurrect state a retraction already compensated.
func Recover(path string) (*RecoverResult, error) {
	type block struct {
		writes   []Record
		seqs     []int // log position of each staged data record
		prepared bool
		coord    int
	}
	res := &RecoverResult{Store: store.New(), Decisions: make(map[TxnRound]bool)}
	pending := make(map[TxnRound]*block)
	seq := 0
	lastApplied := map[string]int{} // key → log position of the write that set it
	apply := func(rec Record, at int) {
		lastApplied[rec.Key] = at
		switch rec.Op {
		case OpPut:
			res.Store.Put(rec.Key, rec.Value)
		case OpDelete:
			res.Store.Delete(rec.Key)
		}
	}
	n, truncated, err := Replay(path, func(rec Record) error {
		seq++
		k := rec.TxnRound()
		switch rec.Op {
		case OpPut, OpDelete:
			if rec.Txn == 0 {
				apply(rec, seq)
				return nil
			}
			b := pending[k]
			if b == nil {
				b = &block{}
				pending[k] = b
			}
			b.writes = append(b.writes, rec)
			b.seqs = append(b.seqs, seq)
		case OpPrepare:
			b := pending[k]
			if b == nil {
				b = &block{}
				pending[k] = b
			}
			b.prepared = true
			b.coord = rec.Coord
		case OpCommit:
			res.Decisions[k] = true
			if b := pending[k]; b != nil {
				for i, w := range b.writes {
					if lastApplied[w.Key] < b.seqs[i] {
						apply(w, b.seqs[i])
					}
				}
				delete(pending, k)
			}
		case OpAbort:
			res.Decisions[k] = false
			delete(pending, k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Records, res.Truncated = n, truncated
	for k, b := range pending {
		if !b.prepared {
			res.Incomplete++ // lost its commit marker to the crash: presumed abort
			continue
		}
		live := make([]Record, 0, len(b.writes))
		for i, w := range b.writes {
			if lastApplied[w.Key] < b.seqs[i] {
				live = append(live, w)
			}
		}
		res.InDoubt = append(res.InDoubt, InDoubt{Txn: k.Txn, Round: k.Round, Coord: b.coord, Writes: live})
	}
	sort.Slice(res.InDoubt, func(i, j int) bool {
		a, b := res.InDoubt[i], res.InDoubt[j]
		return TxnRound{Txn: a.Txn, Round: a.Round}.Less(TxnRound{Txn: b.Txn, Round: b.Round})
	})
	return res, nil
}

// Probe sizes a recovery without materializing any state: the intact
// record count (what replay will cost) and the coordinators of
// prepared-but-undecided commit rounds (one inquiry round trip each), in
// ascending (txn, round) order. Like Recover it truncates a torn tail.
func Probe(path string) (records int, inDoubtCoords []int, err error) {
	type pend struct {
		coord    int
		prepared bool
	}
	pending := make(map[TxnRound]*pend)
	records, _, err = Replay(path, func(rec Record) error {
		k := rec.TxnRound()
		switch rec.Op {
		case OpPut, OpDelete:
			if rec.Txn != 0 && pending[k] == nil {
				pending[k] = &pend{}
			}
		case OpPrepare:
			p := pending[k]
			if p == nil {
				p = &pend{}
				pending[k] = p
			}
			p.prepared, p.coord = true, rec.Coord
		case OpCommit, OpAbort:
			delete(pending, k)
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	keys := make([]TxnRound, 0, len(pending))
	for k, p := range pending {
		if p.prepared {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for _, k := range keys {
		inDoubtCoords = append(inDoubtCoords, pending[k].coord)
	}
	return records, inDoubtCoords, nil
}

// Decisions scans the log at path for decision markers only — the inquiry
// a recovering participant makes against its coordinator's log to resolve
// an in-doubt commit round. Absence of an entry for the exact (txn, round)
// means presumed abort.
func Decisions(path string) (map[TxnRound]bool, error) {
	out := make(map[TxnRound]bool)
	_, _, err := Replay(path, func(rec Record) error {
		switch rec.Op {
		case OpCommit:
			out[rec.TxnRound()] = true
		case OpAbort:
			out[rec.TxnRound()] = false
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Rewrite atomically replaces the log at path with one containing exactly
// recs (written at path.tmp, then renamed over): the primitive under
// twopc.Partition.Checkpoint, which also carries the decision cache and
// in-doubt blocks forward. Any open Log on the old path must be closed
// first and reopened after — appends through a stale handle would land on
// the orphaned inode. The log must be externally quiesced for the swap.
func Rewrite(path string, recs []Record, noSync bool) error {
	tmp := path + ".tmp"
	l, err := Open(tmp)
	if err != nil {
		return err
	}
	l.NoSync = noSync
	if err := l.AppendBatch(recs); err != nil {
		l.Close()
		os.Remove(tmp)
		return err
	}
	if err := l.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
