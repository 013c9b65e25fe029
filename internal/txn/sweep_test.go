package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"croesus/internal/store"
	"croesus/internal/vclock"
)

// sweepOutcome is everything a caller of the manager can observe after a
// trial of TestSweepScheduleUnobservable.
type sweepOutcome struct {
	stats     Stats
	store     map[string]store.Value
	history   []HistoryEntry
	states    []State
	apologies [][]Apology
}

// runTransferTrial plays one generated batch of token transfers under MS-IA
// — the generator of TestMSIATokenConservationProperty, with each transfer
// declaring only the players it touches (so key sets overlap without
// coinciding), three-section transfers that may retract at the middle
// boundary, and initial sections that abort after reading. One goroutine
// interleaves the sections in an order drawn from the seed, so the trial is
// exactly repeatable. With sweepAlways the index is swept after every call
// that can retire an instance; otherwise the manager's own schedule runs.
func runTransferTrial(t *testing.T, seed int64, nJobs int, sweepAlways bool) sweepOutcome {
	var after func(*Manager)
	if sweepAlways {
		after = (*Manager).forceSweep
	}
	return playTransfers(t, seed, nJobs, after)
}

// playTransfers is runTransferTrial's generator; after, when set, runs
// after every call that can retire an instance.
func playTransfers(t *testing.T, seed int64, nJobs int, after func(*Manager)) sweepOutcome {
	const (
		nPlayers    = 6
		perPlayer   = 1000
		maxInFlight = 8
	)
	rng := rand.New(rand.NewSource(seed))
	clk := vclock.NewSim()
	m := newTestManager(clk)
	m.RecordHistory()
	cc := &MSIA{M: m}
	swept := func() {
		if after != nil {
			after(m)
		}
	}

	key := func(p int) string { return "tok:" + string(rune('A'+p)) }
	for p := 0; p < nPlayers; p++ {
		m.Store.Put(key(p), store.Int64Value(perPlayer))
	}
	otherThan := func(p int) int {
		for {
			if q := rng.Intn(nPlayers); q != p {
				return q
			}
		}
	}
	mkTransfer := func(i int) *Txn {
		from := rng.Intn(nPlayers)
		to := otherThan(from)
		correct := to
		if rng.Float64() < 0.4 { // erroneous edge detection
			correct = otherThan(from)
		}
		amount := int64(1 + rng.Intn(20))
		failInitial := rng.Float64() < 0.1
		threeSections := rng.Float64() < 0.25

		rw := RWSet{Writes: []string{key(from), key(to)}}
		if correct != to {
			rw.Writes = append(rw.Writes, key(correct))
		}
		move := func(c *Ctx, dst int) {
			sv, _ := c.Get(key(from))
			dv, _ := c.Get(key(dst))
			c.Put(key(from), store.Int64Value(store.AsInt64(sv)-amount))
			c.Put(key(dst), store.Int64Value(store.AsInt64(dv)+amount))
		}
		initial := func(c *Ctx) error {
			if failInitial {
				c.Get(key(from)) // an aborted reader still gains an in-edge
				return errors.New("initial section refused")
			}
			move(c, to)
			return nil
		}
		corrective := func(c *Ctx) error {
			if correct == to {
				return nil
			}
			c.Retract(fmt.Sprintf("recipient should have been %c", 'A'+correct))
			swept()
			move(c, correct)
			return nil
		}
		tx := &Txn{Name: fmt.Sprintf("xfer-%d", i), InitialRW: rw, FinalRW: rw, Initial: initial, Final: corrective}
		if threeSections {
			tx.Sections = []SectionSpec{
				{Name: "detect", Tier: TierEdge, RW: rw, Body: initial},
				{Name: "classify", Tier: TierPeer, RW: rw, Body: corrective},
				{Name: "verify", Tier: TierCloud, RW: rw, Body: func(*Ctx) error { return nil }},
			}
		}
		return tx
	}

	type flight struct {
		inst *Instance
		next int // the section to run next
	}
	insts := make([]*Instance, 0, nJobs)
	clk.Run(func() {
		var inFlight []flight
		for len(insts) < nJobs || len(inFlight) > 0 {
			start := len(inFlight) == 0 ||
				(len(insts) < nJobs && len(inFlight) < maxInFlight && rng.Intn(2) == 0)
			if start {
				inst := m.NewInstance(mkTransfer(len(insts)), nil)
				insts = append(insts, inst)
				err := cc.RunSection(inst, 0)
				swept()
				if err == nil {
					inFlight = append(inFlight, flight{inst: inst, next: 1})
				}
				continue
			}
			i := rng.Intn(len(inFlight))
			f := &inFlight[i]
			// Like the pipeline, keep driving boundaries after ErrRetracted.
			if err := cc.RunSection(f.inst, f.next); err != nil && !errors.Is(err, ErrRetracted) {
				t.Errorf("seed %d: txn %d section %d: %v", seed, f.inst.ID, f.next, err)
			}
			swept()
			if f.next == f.inst.T.LastSection() {
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
			} else {
				f.next++
			}
		}
	})

	var total int64
	for p := 0; p < nPlayers; p++ {
		v, _ := m.Store.Get(key(p))
		total += store.AsInt64(v)
	}
	if total != nPlayers*perPlayer {
		t.Errorf("seed %d: token supply = %d, want %d", seed, total, nPlayers*perPlayer)
	}
	out := sweepOutcome{stats: m.Stats(), store: m.Store.Snapshot(), history: m.History()}
	for _, in := range insts {
		out.states = append(out.states, in.State())
		out.apologies = append(out.apologies, in.Apologies())
	}
	return out
}

// TestSweepScheduleUnobservable: a sweep removes only state no cascade can
// reach, so sweeping at every opportunity and sweeping on the manager's own
// schedule must leave the same counters, store, history, instance states and
// apologies. The manager sweeps at its first retirement and then once the
// waiting list reaches 2·kept + live + 1, so small batches sweep a few times
// and the large ones hundreds of times, each at other instants than the
// sweep-always run's.
func TestSweepScheduleUnobservable(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		seed := int64(trial)*104729 + 1
		rng := rand.New(rand.NewSource(seed))
		nJobs := 4 + rng.Intn(8)
		if trial%4 == 3 {
			nJobs = 200 + rng.Intn(200)
		}
		always := runTransferTrial(t, seed, nJobs, true)
		byDefault := runTransferTrial(t, seed, nJobs, false)
		if always.stats.Retractions == 0 && nJobs > 100 {
			t.Errorf("trial %d: no retraction in %d transfers; the generator lost its cascades", trial, nJobs)
		}
		if !reflect.DeepEqual(always, byDefault) {
			t.Errorf("trial %d (%d transfers): sweep schedule is observable\n always: %+v\ndefault: %+v",
				trial, nJobs, always.stats, byDefault.stats)
			for i := range always.states {
				if always.states[i] != byDefault.states[i] || !reflect.DeepEqual(always.apologies[i], byDefault.apologies[i]) {
					t.Errorf("  txn %d: %v %v vs %v %v", i+1, always.states[i], always.apologies[i], byDefault.states[i], byDefault.apologies[i])
				}
			}
		}
	}
}

// TestManagerIndexBounded: the index follows the in-flight window. 20 000
// two-section transactions over 100 keys, at most 8 in flight, half MS-IA
// and half MS-SR, one in sixteen retracting — when the last one ends the
// manager holds a few hundred entries, not one per transaction ever run.
func TestManagerIndexBounded(t *testing.T) {
	const (
		workers   = 8
		perWorker = 2500
		nKeys     = 100
	)
	clk := vclock.NewSim()
	m := newTestManager(clk)
	msia := &MSIA{M: m}
	mssr := &MSSR{M: m, Policy: Wait}
	for w := 0; w < workers; w++ {
		w := w
		clk.Go(func() {
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perWorker; i++ {
				a := store.ItoaKey("k", rng.Intn(nKeys))
				b := store.ItoaKey("k", rng.Intn(nKeys))
				retract := rng.Intn(16) == 0
				rw := RWSet{Reads: []string{a}, Writes: []string{b}}
				tx := &Txn{
					Name:      "bounded",
					InitialRW: rw,
					FinalRW:   rw,
					Initial: func(c *Ctx) error {
						c.Get(a)
						c.Put(b, store.Int64Value(int64(i)))
						return nil
					},
					Final: func(c *Ctx) error {
						if retract {
							c.Retract("erroneous")
						}
						return nil
					},
				}
				var cc CC = msia
				if i%2 == 1 {
					cc = mssr
				}
				inst := m.NewInstance(tx, nil)
				if err := cc.RunInitial(inst); err != nil {
					continue // wait-die abort
				}
				clk.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
				if err := cc.RunFinal(inst); err != nil && !errors.Is(err, ErrRetracted) {
					t.Errorf("final: %v", err)
				}
			}
		})
	}
	clk.Wait()

	st := m.Stats()
	if st.FinalCommits < workers*perWorker/2 || st.Retractions == 0 {
		t.Fatalf("workload did not run as meant: %+v", st)
	}
	lastWriter, live, waiting := m.indexSize()
	t.Logf("after %d transactions: lastWriter %d, live %d, waiting %d", st.InitialCommits+st.Aborts, lastWriter, live, waiting)
	if live != 0 {
		t.Errorf("%d instances still on the live list with nothing in flight", live)
	}
	if lastWriter > nKeys {
		t.Errorf("lastWriter has %d entries over %d keys", lastWriter, nKeys)
	}
	if total := lastWriter + live + waiting; total > 300 {
		t.Errorf("index holds %d entries after %d transactions, want a bound that follows the in-flight window", total, workers*perWorker)
	}
	m.forceSweep()
	if lastWriter, live, waiting = m.indexSize(); lastWriter+live+waiting != 0 {
		t.Errorf("idle manager still indexes lastWriter %d, live %d, waiting %d after a sweep", lastWriter, live, waiting)
	}
}

// TestRetractedWriterStaysIndexedUntilSettled: a cascade's victim remains
// the recorded last writer of its keys while one of its ancestors can still
// retract — a later writer picks up the edge and the ancestor's cascade
// reaches it — and is dropped from the index once that ancestor is done.
func TestRetractedWriterStaysIndexedUntilSettled(t *testing.T) {
	clk := vclock.NewSim()
	m := newTestManager(clk)
	cc := &MSIA{M: m}
	m.Store.Put("v", store.Int64Value(100))

	retractor := func(name, key string, retract *bool) *Txn {
		rw := RWSet{Writes: []string{key}}
		return &Txn{
			Name: name, InitialRW: rw, FinalRW: rw,
			Initial: func(c *Ctx) error { c.Put(key, store.Int64Value(1)); return nil },
			Final: func(c *Ctx) error {
				if *retract {
					c.Retract(name + " was wrong")
				}
				return nil
			},
		}
	}
	yes := true
	ancestor := m.NewInstance(retractor("ancestor", "a", &yes), nil)
	culprit := m.NewInstance(retractor("culprit", "c", &yes), nil)
	// The victim depends on both and writes v; the bystander overwrites v
	// after the victim has been retracted.
	victimRW := RWSet{Reads: []string{"a", "c"}, Writes: []string{"v"}}
	victim := m.NewInstance(&Txn{
		Name: "victim", InitialRW: victimRW, FinalRW: victimRW,
		Initial: func(c *Ctx) error {
			c.Get("a")
			c.Get("c")
			c.Put("v", store.Int64Value(200))
			return nil
		},
		Final: func(c *Ctx) error { return nil },
	}, nil)
	bystanderRW := RWSet{Writes: []string{"v"}}
	bystander := m.NewInstance(&Txn{
		Name: "bystander", InitialRW: bystanderRW, FinalRW: bystanderRW,
		Initial: func(c *Ctx) error { c.Put("v", store.Int64Value(300)); return nil },
		Final:   func(c *Ctx) error { return nil },
	}, nil)

	clk.Run(func() {
		for _, in := range []*Instance{ancestor, culprit, victim} {
			if err := cc.RunInitial(in); err != nil {
				t.Fatalf("%s initial: %v", in.T.Name, err)
			}
		}
		if err := cc.RunFinal(culprit); !errors.Is(err, ErrRetracted) {
			t.Fatalf("culprit final = %v, want ErrRetracted", err)
		}
		if victim.State() != StateRetracted {
			t.Fatalf("victim is %v after the culprit's cascade", victim.State())
		}
		if v, _ := m.Store.Get("v"); store.AsInt64(v) != 100 {
			t.Fatalf("v = %d after the cascade, want 100", store.AsInt64(v))
		}
		// Culprit and victim are terminal, but the ancestor still reaches
		// the victim: a sweep must keep it indexed.
		m.forceSweep()
		if got := m.lastWriterOf("v"); got != victim {
			t.Fatalf("victim no longer the last writer of v while its ancestor is live (got %v)", got)
		}
		if got := m.lastWriterOf("c"); got != nil {
			t.Errorf("culprit still indexed with no live ancestor")
		}

		if err := cc.RunInitial(bystander); err != nil {
			t.Fatal(err)
		}
		if err := cc.RunFinal(bystander); err != nil {
			t.Fatal(err)
		}
		m.forceSweep()
		if err := cc.RunFinal(ancestor); !errors.Is(err, ErrRetracted) {
			t.Fatalf("ancestor final = %v, want ErrRetracted", err)
		}
		if bystander.State() != StateRetracted {
			t.Errorf("bystander is %v: the ancestor's cascade did not reach it through the retracted victim", bystander.State())
		}
		if v, _ := m.Store.Get("v"); store.AsInt64(v) != 100 {
			t.Errorf("v = %d after the ancestor's cascade, want 100", store.AsInt64(v))
		}
		if n := len(victim.Apologies()); n != 2 {
			t.Errorf("victim has %d apologies, want one per cascade that reached it", n)
		}
	})

	m.forceSweep()
	if lw, live, waiting := m.indexSize(); lw+live+waiting != 0 {
		t.Errorf("index not empty once every ancestor is terminal: lastWriter %d, live %d, waiting %d", lw, live, waiting)
	}
}

// TestWritesAfterSelfRetract pins the retract-then-replay final section the
// conservation property relies on: the writes a body makes after retracting
// its own instance stand, are undo-logged afresh, and a later cascade from
// an ancestor undoes exactly them — the images the first retraction already
// restored are not replayed.
func TestWritesAfterSelfRetract(t *testing.T) {
	clk := vclock.NewSim()
	m := newTestManager(clk)
	cc := &MSIA{M: m}
	m.Store.Put("x", store.Int64Value(10))
	m.Store.Put("y", store.Int64Value(20))

	rootRW := RWSet{Writes: []string{"r"}}
	root := m.NewInstance(&Txn{
		Name: "root", InitialRW: rootRW, FinalRW: rootRW,
		Initial: func(c *Ctx) error { c.Put("r", store.Int64Value(1)); return nil },
		Final:   func(c *Ctx) error { c.Retract("root was wrong"); return nil },
	}, nil)
	replayRW := RWSet{Reads: []string{"r"}, Writes: []string{"x", "y"}}
	replay := m.NewInstance(&Txn{
		Name: "replay", InitialRW: replayRW, FinalRW: replayRW,
		Initial: func(c *Ctx) error {
			c.Get("r")
			c.Put("x", store.Int64Value(11))
			return nil
		},
		Final: func(c *Ctx) error {
			c.Retract("wrong key")
			c.Put("y", store.Int64Value(21))
			return nil
		},
	}, nil)

	clk.Run(func() {
		if err := cc.RunInitial(root); err != nil {
			t.Fatal(err)
		}
		if err := cc.RunInitial(replay); err != nil {
			t.Fatal(err)
		}
		if err := cc.RunFinal(replay); !errors.Is(err, ErrRetracted) {
			t.Fatalf("replay final = %v, want ErrRetracted", err)
		}
		x, _ := m.Store.Get("x")
		y, _ := m.Store.Get("y")
		if store.AsInt64(x) != 10 || store.AsInt64(y) != 21 {
			t.Fatalf("after retract-then-write: x=%d y=%d, want 10 and 21", store.AsInt64(x), store.AsInt64(y))
		}
		if replay.State() != StateRetracted {
			t.Errorf("replay is %v, want retracted", replay.State())
		}
		m.forceSweep()
		if m.lastWriterOf("x") != replay || m.lastWriterOf("y") != replay {
			t.Errorf("replay dropped from the index while root can still retract")
		}

		// Someone else changes x; root's cascade must undo replay's write
		// of y and leave x alone.
		m.Store.Put("x", store.Int64Value(12))
		if err := cc.RunFinal(root); !errors.Is(err, ErrRetracted) {
			t.Fatalf("root final = %v, want ErrRetracted", err)
		}
		x, _ = m.Store.Get("x")
		y, _ = m.Store.Get("y")
		if store.AsInt64(x) != 12 || store.AsInt64(y) != 20 {
			t.Errorf("after root's cascade: x=%d y=%d, want 12 and 20", store.AsInt64(x), store.AsInt64(y))
		}
	})
	// replay by itself, then root and replay together.
	if st := m.Stats(); st.Retractions != 3 {
		t.Errorf("Retractions = %d, want 3", st.Retractions)
	}
}

// TestSweepScheduleAmortized: over long streams of the transfer generator,
// with its cycles, retractions and aborts, the manager's own schedule never
// lets the waiting list reach its threshold, and the instances its sweeps
// visit stay within a small constant times the starts plus retirements that
// paid for them.
func TestSweepScheduleAmortized(t *testing.T) {
	const nJobs = 3000
	for seed := int64(1); seed <= 4; seed++ {
		var (
			m        *Manager
			calls    int
			overflow string // the first time the waiting list reached its threshold
		)
		out := playTransfers(t, seed, nJobs, func(mm *Manager) {
			m = mm
			calls++
			if waiting, sweepAt, _ := mm.schedule(); waiting > 0 && waiting >= sweepAt && overflow == "" {
				overflow = fmt.Sprintf("after call %d, %d instances wait at threshold %d", calls, waiting, sweepAt)
			}
		})
		if overflow != "" {
			t.Errorf("seed %d: %s", seed, overflow)
		}
		if out.stats.Retractions == 0 || out.stats.Aborts == 0 {
			t.Fatalf("seed %d: generator ran no retraction or no abort: %+v", seed, out.stats)
		}
		// Every instance starts (touches the index) and retires at most once.
		_, _, swept := m.schedule()
		paid := uint64(2 * nJobs)
		t.Logf("seed %d: sweeps visited %d instances for %d starts plus retirements (%.2f each)", seed, swept, paid, float64(swept)/float64(paid))
		if swept > 4*paid {
			t.Errorf("seed %d: sweeps visited %d instances, want ≤ 4 per start plus retirement (%d)", seed, swept, 4*paid)
		}
	}
}

// TestFreshManagerSweepsAtFirstRetirement: a new manager does not wait for
// a batch of retirements before its first sweep, so one finished
// transaction leaves nothing indexed.
func TestFreshManagerSweepsAtFirstRetirement(t *testing.T) {
	clk := vclock.NewSim()
	m := newTestManager(clk)
	cc := &MSIA{M: m}
	rw := RWSet{Reads: []string{"a"}, Writes: []string{"b"}}
	in := m.NewInstance(&Txn{
		Name: "first", InitialRW: rw, FinalRW: rw,
		Initial: func(c *Ctx) error {
			c.Get("a")
			c.Put("b", store.Int64Value(1))
			return nil
		},
		Final: func(*Ctx) error { return nil },
	}, nil)
	clk.Run(func() {
		if err := cc.RunInitial(in); err != nil {
			t.Fatal(err)
		}
		if _, live, waiting := m.indexSize(); live != 1 || waiting != 0 {
			t.Fatalf("after the initial commit: live %d, waiting %d; want 1 and 0", live, waiting)
		}
		if err := cc.RunFinal(in); err != nil {
			t.Fatal(err)
		}
	})
	if lw, live, waiting := m.indexSize(); lw+live+waiting != 0 {
		t.Errorf("after the first retirement: lastWriter %d, live %d, waiting %d; want a sweep to have left 0", lw, live, waiting)
	}
}
