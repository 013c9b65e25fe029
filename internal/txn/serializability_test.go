package txn_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"croesus/internal/store"
	"croesus/internal/twopc"
	. "croesus/internal/txn"
	"croesus/internal/vclock"
)

// rmwSpec describes a read-modify-write transaction: the initial section
// reads every key, the final section writes back values derived from ALL
// reads, so any lost update or reordering is observable in the final state.
type rmwSpec struct {
	id     int
	keys   []string // read set == write set
	addend int64
}

func (s rmwSpec) txn() *Txn {
	captured := make([]int64, len(s.keys))
	return &Txn{
		Name:      fmt.Sprintf("rmw-%d", s.id),
		InitialRW: RWSet{Reads: s.keys},
		FinalRW:   RWSet{Writes: s.keys},
		Initial: func(c *Ctx) error {
			for i, k := range s.keys {
				v, _ := c.Get(k)
				captured[i] = store.AsInt64(v)
			}
			return nil
		},
		Final: func(c *Ctx) error {
			var sum int64
			for _, v := range captured {
				sum += v
			}
			for i, k := range s.keys {
				c.Put(k, store.Int64Value(captured[i]+sum%7+s.addend))
			}
			return nil
		},
	}
}

// serialApply replays the specs one at a time, in order, on a fresh store.
func serialApply(order []rmwSpec) map[string]int64 {
	clk := vclock.NewSim()
	m, cc := newEdge(clk, twopc.MSSR)
	clk.Run(func() {
		for _, s := range order {
			inst := m.NewInstance(s.txn(), nil)
			if err := cc.RunInitial(inst); err != nil {
				panic(err)
			}
			if err := cc.RunFinal(inst); err != nil {
				panic(err)
			}
		}
	})
	out := map[string]int64{}
	for _, k := range m.Store.Keys("") {
		v, _ := m.Store.Get(k)
		out[k] = store.AsInt64(v)
	}
	return out
}

// TestMSSRSerializabilityProperty runs random batches of conflicting
// read-modify-write transactions concurrently under MS-SR (wait-die with
// restart) and checks that the final database state equals a SERIAL replay
// of the committed transactions in their initial-commit order — the
// definition of multi-stage serializability: both sections of a
// transaction behave as one atomic unit ordered at its initial commit.
func TestMSSRSerializabilityProperty(t *testing.T) {
	keyPool := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		n := 3 + rng.Intn(6)
		specs := make([]rmwSpec, n)
		for i := range specs {
			nk := 1 + rng.Intn(3)
			perm := rng.Perm(len(keyPool))[:nk]
			keys := make([]string, nk)
			for j, p := range perm {
				keys[j] = keyPool[p]
			}
			specs[i] = rmwSpec{id: i, keys: keys, addend: int64(rng.Intn(50))}
		}
		gaps := make([]time.Duration, n)
		for i := range gaps {
			gaps[i] = time.Duration(10+rng.Intn(70)) * time.Millisecond
		}

		clk := vclock.NewSim()
		m, cc := newEdge(clk, twopc.MSSR)
		m.RecordHistory()
		var mu sync.Mutex
		bySuccessID := map[ID]rmwSpec{}
		for i := range specs {
			spec := specs[i]
			gap := gaps[i]
			clk.Go(func() {
				for {
					inst := m.NewInstance(spec.txn(), nil)
					err := cc.RunInitial(inst)
					if errors.Is(err, ErrAborted) {
						clk.Sleep(time.Duration(1+int(inst.ID)%7) * time.Millisecond)
						continue // wait-die restart with a fresh timestamp
					}
					if err != nil {
						t.Errorf("trial %d: initial: %v", trial, err)
						return
					}
					mu.Lock()
					bySuccessID[inst.ID] = spec
					mu.Unlock()
					clk.Sleep(gap) // the cloud round trip
					if err := cc.RunFinal(inst); err != nil {
						t.Errorf("trial %d: final: %v", trial, err)
					}
					return
				}
			})
		}
		clk.Wait()

		// Initial-commit order of the committed instances.
		var order []rmwSpec
		for _, h := range m.History() {
			if h.Stage != StageInitial {
				continue
			}
			if spec, ok := bySuccessID[h.Txn]; ok {
				order = append(order, spec)
			}
		}
		if len(order) != n {
			t.Fatalf("trial %d: %d of %d transactions committed", trial, len(order), n)
		}

		want := serialApply(order)
		for _, k := range keyPool {
			v, _ := m.Store.Get(k)
			got := store.AsInt64(v)
			if got != want[k] {
				t.Errorf("trial %d: key %q = %d, serial replay gives %d (order %v)",
					trial, k, got, want[k], ids(order))
			}
		}
	}
}

func ids(specs []rmwSpec) []int {
	out := make([]int, len(specs))
	for i, s := range specs {
		out[i] = s.id
	}
	return out
}
