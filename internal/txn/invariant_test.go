package txn_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"croesus/internal/store"
	"croesus/internal/twopc"
	. "croesus/internal/txn"
	"croesus/internal/vclock"
)

// TestMSIATokenConservationProperty is the invariant-confluence analogue of
// the serializability test: random batches of token transfers run under
// MS-IA with random cloud gaps; a random subset turns out to have had
// erroneous recipients and their final sections retract-and-replay toward
// the corrected player (§4.4). Whatever the interleaving and cascade
// pattern, the application invariant must hold at the end: token supply is
// conserved.
func TestMSIATokenConservationProperty(t *testing.T) {
	const nPlayers = 6
	players := make([]string, nPlayers)
	for i := range players {
		players[i] = string(rune('A' + i))
	}
	keys := make([]string, nPlayers)
	for i, p := range players {
		keys[i] = "tok:" + p
	}

	mkTransfer := func(clk vclock.Clock, from, to, correctTo string, amount int64) *Txn {
		move := func(c *Ctx, src, dst string) {
			sv, _ := c.Get("tok:" + src)
			dv, _ := c.Get("tok:" + dst)
			c.Put("tok:"+src, store.Int64Value(store.AsInt64(sv)-amount))
			c.Put("tok:"+dst, store.Int64Value(store.AsInt64(dv)+amount))
		}
		return &Txn{
			Name:      fmt.Sprintf("xfer-%s-%s", from, to),
			InitialRW: RWSet{Writes: keys},
			FinalRW:   RWSet{Writes: keys},
			Initial: func(c *Ctx) error {
				clk.Sleep(time.Millisecond)
				move(c, from, to)
				return nil
			},
			Final: func(c *Ctx) error {
				if correctTo == to {
					return nil
				}
				c.Retract("recipient should have been " + correctTo)
				move(c, from, correctTo)
				return nil
			},
		}
	}

	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 1))
		clk := vclock.NewSim()
		m, cc := newEdge(clk, twopc.MSIA)

		const perPlayer = 100
		for _, k := range keys {
			m.Store.Put(k, store.Int64Value(perPlayer))
		}
		supply := int64(nPlayers * perPlayer)

		n := 4 + rng.Intn(8)
		type job struct {
			txn *Txn
			gap time.Duration
		}
		// A transfer's endpoints are distinct players (a self-transfer is
		// not a transfer), and so is the corrected recipient.
		otherThan := func(p string) string {
			for {
				q := players[rng.Intn(nPlayers)]
				if q != p {
					return q
				}
			}
		}
		jobs := make([]job, n)
		for i := range jobs {
			from := players[rng.Intn(nPlayers)]
			to := otherThan(from)
			correct := to
			if rng.Float64() < 0.4 { // erroneous edge detection
				correct = otherThan(from)
			}
			jobs[i] = job{
				txn: mkTransfer(clk, from, to, correct, int64(1+rng.Intn(20))),
				gap: time.Duration(5+rng.Intn(50)) * time.Millisecond,
			}
		}
		for _, j := range jobs {
			j := j
			clk.Go(func() {
				inst := m.NewInstance(j.txn, nil)
				if err := cc.RunInitial(inst); err != nil {
					t.Errorf("trial %d: initial: %v", trial, err)
					return
				}
				clk.Sleep(j.gap)
				if err := cc.RunFinal(inst); err != nil && !errors.Is(err, ErrRetracted) {
					t.Errorf("trial %d: final: %v", trial, err)
				}
			})
		}
		clk.Wait()

		var total int64
		for _, k := range keys {
			v, _ := m.Store.Get(k)
			total += store.AsInt64(v)
		}
		if total != supply {
			t.Errorf("trial %d: token supply = %d, want %d (conservation violated)", trial, total, supply)
		}
	}
}
