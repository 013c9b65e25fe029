package core

import (
	"strconv"
	"sync"
	"time"

	"croesus/internal/detect"
	"croesus/internal/lock"
	"croesus/internal/randsrc"
	"croesus/internal/store"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/workload"
)

// correctedReason builds the apology text without fmt (one allocation —
// the string itself); output is byte-identical to
// fmt.Sprintf("label corrected to %q", label).
func correctedReason(label string) string {
	var buf [64]byte
	b := append(buf[:0], "label corrected to "...)
	b = strconv.AppendQuote(b, label)
	return string(b)
}

// chargeOp models the CPU cost of one database operation.
func (s *WorkloadSource) chargeOp() {
	if s.Clk != nil && s.OpCost > 0 {
		s.Clk.Sleep(s.OpCost)
	}
}

// WorkloadSource builds the paper's evaluation transactions: each detection
// triggers a transaction with NumOps operations, half inserting data items
// and half reading previously added items ("This mimics a write-heavy
// workload of YCSB (Workload A)", §5.1). The final section terminates when
// the label was correct, overwrites with the corrected label (plus an
// apology) when the cloud disagrees, and retracts the initial writes when
// the detection was erroneous.
type WorkloadSource struct {
	Keys   workload.KeyChooser
	NumOps int
	Seed   int64
	// Clk and OpCost, when both set, charge OpCost of clock time per
	// database operation, modelling section execution cost. This is what
	// gives MS-IA its milliseconds-scale lock hold times in the
	// Figure 6(a) experiment.
	Clk    vclock.Clock
	OpCost time.Duration

	mu   sync.Mutex
	plan []txn.SectionSpec
}

// NewWorkloadSource returns a source over nKeys uniform keys with the
// paper's 6-operation bodies.
func NewWorkloadSource(nKeys int, seed int64) *WorkloadSource {
	return &WorkloadSource{
		Keys:   workload.Uniform{Prefix: "item", N: nKeys},
		NumOps: 6,
		Seed:   seed,
	}
}

// SetPlan shapes the source's transactions to an inference graph: with a
// non-empty plan (Graph.SectionPlan()), TxnFor emits one section per plan
// entry — section 0 runs the insert/read body, every later section the
// corrective body — instead of the classic Initial/Final pair. All
// sections share one read/write set, so MS-SR's up-front union
// acquisition covers the whole graph. Safe against concurrent TxnFor
// calls; an empty plan restores the two-stage shape.
func (s *WorkloadSource) SetPlan(plan []txn.SectionSpec) {
	s.mu.Lock()
	s.plan = plan
	s.mu.Unlock()
}

// SetKeys swaps the source's key chooser mid-run — the mechanism behind a
// scenario's workload shifts (skew or cross-edge fraction changing under a
// live fleet). Safe against concurrent TxnFor calls.
func (s *WorkloadSource) SetKeys(k workload.KeyChooser) {
	s.mu.Lock()
	s.Keys = k
	s.mu.Unlock()
}

// workloadTxn is one trigger's transaction with everything it needs in a
// single allocation: the template itself, the operations, the declared keys
// and the normalized lock requests. The arrays back the slices up to the
// paper's body sizes; a larger NumOps spills to the heap through append.
type workloadTxn struct {
	txn.Txn
	src    *WorkloadSource
	ops    []workload.Op
	opArr  [8]workload.Op
	keyArr [8]string
	reqArr [8]lock.Request
}

// TxnFor builds the per-detection transaction. Keys are drawn
// deterministically from (seed, frame, trigger box), so repeated runs and
// different pipeline modes observe identical workloads.
func (s *WorkloadSource) TxnFor(frameIndex int, d detect.Detection) *txn.Txn {
	t := &workloadTxn{src: s}
	s.mu.Lock()
	r := randsrc.Get(s.Seed ^ int64(frameIndex)*1_000_003 ^ int64(d.Box.X*8191)<<16 ^ int64(d.Box.Y*131071))
	t.ops = workload.AppendDetectionOps(t.opArr[:0], r.Rand, s.Keys, s.NumOps)
	r.Put()
	plan := s.plan
	s.mu.Unlock()

	// One backing array carries both halves of the declared set.
	keys := t.keyArr[:0]
	for _, op := range t.ops {
		if op.Kind == workload.OpInsert {
			keys = append(keys, op.Key)
		}
	}
	nW := len(keys)
	for _, op := range t.ops {
		if op.Kind != workload.OpInsert {
			keys = append(keys, op.Key)
		}
	}
	var rw txn.RWSet
	rw.Writes = keys[:nW:nW]
	rw.Reads = keys[nW:]
	rw.Precompute(t.reqArr[:0])

	t.Name = "detect-" + d.Label + "-f" + strconv.Itoa(frameIndex)
	t.InitialRW, t.FinalRW = rw, rw
	body := t.run // one bound method serves every section
	t.Initial, t.Final = body, body
	if len(plan) > 0 {
		t.Sections = make([]txn.SectionSpec, len(plan))
		for k := range plan {
			t.Sections[k] = txn.SectionSpec{Name: plan[k].Name, Tier: plan[k].Tier, RW: rw, Body: body}
		}
	}
	return &t.Txn
}

// run is every section's body: section 0 runs the insert/read half, every
// later section the corrective half.
func (t *workloadTxn) run(c *txn.Ctx) error {
	if c.Stage() == txn.StageInitial {
		return t.initial(c)
	}
	return t.corrective(c)
}

// initial inserts the trigger's label under the write keys and reads the
// rest.
func (t *workloadTxn) initial(c *txn.Ctx) error {
	in, _ := c.In().(InitialInput)
	v := store.StringValue(in.Trigger.Label)
	for _, op := range t.ops {
		t.src.chargeOp()
		if op.Kind == workload.OpInsert {
			c.Put(op.Key, v)
		} else {
			c.Get(op.Key)
		}
	}
	return nil
}

// corrective reconciles the transaction with the node's verdict on its
// trigger.
func (t *workloadTxn) corrective(c *txn.Ctx) error {
	fin, _ := c.In().(FinalInput)
	switch fin.Case {
	case MatchCorrected, MatchNew:
		// Overwrite the inserted items with the corrected label
		// and apologize to the client.
		v := store.StringValue(fin.Cloud.Label)
		for _, op := range t.ops {
			if op.Kind == workload.OpInsert {
				t.src.chargeOp()
				c.Put(op.Key, v)
			}
		}
		c.Apologize(correctedReason(fin.Cloud.Label))
	case MatchErroneous:
		// False detection: retract the work of every committed
		// section — a cascading retraction at this boundary.
		c.Retract("erroneous detection removed by cloud validation")
	default:
		// MatchCorrect / MatchAssumed: the guess held; terminate
		// (the §2.1 task-1 behaviour).
	}
	return nil
}
