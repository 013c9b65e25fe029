// Smartcampus is the paper's §2.1 running example: a campus AR application
// with two tasks, the rows of its §3.3 transactions bank.
//
//   - Task 1 (tbldng): whenever a building is detected, read its info from
//     the database and render it on the headset. It fires once per building
//     label. The final section re-renders with an apology if the cloud model
//     disagrees with the edge model.
//   - Task 2 (trsrv): when the user clicks the auxiliary device, reserve a
//     study room in the center-most detected building. It fires once per
//     click. The final section checks the corrected labels; a reservation
//     made in the wrong building is retracted and re-made in the right one,
//     with an apology.
//
// The example drives the edge/cloud models and MS-IA manually, and matches
// labels to transactions in plain code — the low-level API underneath
// core.Pipeline, whose transactions bank is a TxnSource.
//
//	go run ./examples/smartcampus
package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"croesus"
)

// campus builds a profile where "building" is the query class.
func campus() croesus.VideoProfile {
	p := croesus.AirportRunway() // large, mostly static objects — like buildings
	p.Name = "smart-campus"
	p.QueryClass = "building"
	p.Classes = []croesus.ClassFreq{
		{Class: "building", Freq: 0.7},
		{Class: "shuttle", Freq: 0.3},
	}
	p.DifficultyMean = 0.45 // campus haze: the edge model errs sometimes
	p.DifficultyStd = 0.18
	return p
}

const nRooms = 3 // study rooms per building

func roomKey(building string, room int) string {
	return fmt.Sprintf("room:%s:%d", building, room)
}

func buildingKeys(names []string) []string {
	var keys []string
	for _, b := range names {
		keys = append(keys, "bldg:"+b)
		for r := 0; r < nRooms; r++ {
			keys = append(keys, roomKey(b, r))
		}
	}
	return keys
}

func main() {
	clk := croesus.NewSimClock()
	sys := croesus.NewSystem(clk)
	cc := sys.MSIA()

	// Name the campus buildings after the ground-truth track IDs the
	// detector reports, so corrected labels map to database keys.
	buildings := []string{"Engineering", "Library", "Gym", "Cafeteria"}
	for _, b := range buildings {
		sys.Store.Put("bldg:"+b, croesus.Value(fmt.Sprintf("%s Building — hours 8am-10pm", b)))
		for r := 0; r < nRooms; r++ {
			sys.Store.Put(roomKey(b, r), croesus.Value("free"))
		}
	}
	allKeys := buildingKeys(buildings)
	nameOf := func(d croesus.Detection) string {
		return buildings[d.TrackID%len(buildings)]
	}

	// ----- The transactions bank (§3.3) -----

	// Task 1: display building info.
	tbldng := func() *croesus.Txn {
		return &croesus.Txn{
			Name:      "tbldng",
			InitialRW: croesus.RWSet{Reads: allKeys},
			FinalRW:   croesus.RWSet{Reads: allKeys},
			Initial: func(c *croesus.TxnCtx) error {
				in := c.In().(croesus.InitialInput)
				name := nameOf(in.Trigger)
				if info, ok := c.Get("bldg:" + name); ok {
					fmt.Printf("  [initial] rendering info for %-12s → %s\n", name, info)
				}
				return nil
			},
			Final: func(c *croesus.TxnCtx) error {
				fin := c.In().(croesus.FinalInput)
				switch fin.Case {
				case croesus.MatchCorrect, croesus.MatchAssumed:
					return nil // labels agree: terminate (paper task 1)
				case croesus.MatchErroneous:
					c.Apologize("that wasn't a building after all — info card removed")
					fmt.Println("  [final]   removed an info card (false detection)")
					return nil
				default:
					name := nameOf(fin.Cloud)
					if info, ok := c.Get("bldg:" + name); ok {
						fmt.Printf("  [final]   corrected card → %s\n", info)
					}
					c.Apologize("building identity corrected to " + name)
					return nil
				}
			},
		}
	}

	// Task 2: reserve a study room on click.
	trsrv := func() *croesus.Txn {
		var reserved string // key of the room taken in the initial section
		return &croesus.Txn{
			Name:      "trsrv",
			InitialRW: croesus.RWSet{Writes: allKeys},
			FinalRW:   croesus.RWSet{Writes: allKeys},
			Initial: func(c *croesus.TxnCtx) error {
				in := c.In().(croesus.InitialInput)
				name := nameOf(in.Trigger)
				for r := 0; r < nRooms; r++ {
					k := roomKey(name, r)
					if v, _ := c.Get(k); string(v) == "free" {
						c.Put(k, croesus.Value("reserved"))
						reserved = k
						fmt.Printf("  [initial] reserved %s\n", k)
						return nil
					}
				}
				return errors.New("no free rooms in " + name)
			},
			Final: func(c *croesus.TxnCtx) error {
				fin := c.In().(croesus.FinalInput)
				if fin.Case == croesus.MatchCorrect || fin.Case == croesus.MatchAssumed {
					return nil // right building: keep the reservation
				}
				// Wrong building (or not a building): undo and re-book.
				if reserved != "" {
					c.Put(reserved, croesus.Value("free"))
					fmt.Printf("  [final]   released %s (wrong building)\n", reserved)
				}
				if fin.Case == croesus.MatchErroneous {
					c.Apologize("reservation cancelled: no building was there")
					return nil
				}
				name := nameOf(fin.Cloud)
				for r := 0; r < nRooms; r++ {
					k := roomKey(name, r)
					if v, _ := c.Get(k); string(v) == "free" {
						c.Put(k, croesus.Value("reserved"))
						c.Apologize("moved your reservation to " + name)
						fmt.Printf("  [final]   re-booked %s\n", k)
						return nil
					}
				}
				c.Apologize("no rooms available in " + name + " — reservation cancelled")
				return nil
			},
		}
	}

	// ----- Drive frames through edge and cloud models -----
	edge := croesus.TinyYOLOSim(42)
	cloud := croesus.YOLOv3Sim(croesus.YOLO416, 42)
	gen := croesus.NewVideoGenerator(campus(), 9)
	rng := rand.New(rand.NewSource(5))

	clk.Run(func() {
		for i := 0; i < 12; i++ {
			f := gen.Next()
			edgeDets := edge.Detect(f).Detections
			// The user clicks on some frames.
			clicks := 0
			if rng.Float64() < 0.5 {
				clicks = 1
			}
			// The bank: tbldng once per building label, then trsrv once
			// per click on the center-most building.
			labels := relabel(edgeDets)
			var txns []*croesus.Txn
			var fired []croesus.Detection
			for _, d := range labels {
				if d.Label == "building" {
					txns, fired = append(txns, tbldng()), append(fired, d)
				}
			}
			if d, ok := centerMost(labels); ok {
				for range clicks {
					txns, fired = append(txns, trsrv()), append(fired, d)
				}
			}
			if len(txns) == 0 {
				continue
			}
			fmt.Printf("frame %d: %d labels, %d click(s) → %d transaction(s)\n",
				f.Index, len(edgeDets), clicks, len(txns))

			// Initial sections at the edge.
			var pend []*croesus.TxnInstance
			var trig []croesus.Detection
			for j, t := range txns {
				inst := sys.Manager.NewInstance(t, croesus.InitialInput{FrameIndex: f.Index, Trigger: fired[j]})
				if err := cc.RunInitial(inst); err != nil {
					fmt.Printf("  [initial] %s aborted: %v\n", t.Name, err)
					continue
				}
				pend = append(pend, inst)
				trig = append(trig, fired[j])
			}

			// Cloud validation and final sections. Each transaction's
			// trigger is matched on its own: several transactions may
			// share one label (tbldng and trsrv on the same building),
			// and each final section receives that label's correction.
			cloudDets := relabel(cloud.Detect(f).Detections)
			for j, inst := range pend {
				m := croesus.MatchLabels([]croesus.Detection{trig[j]}, cloudDets, 0.10)[0]
				inst.FinalIn = croesus.FinalInput{FrameIndex: f.Index, Case: m.Case, Edge: trig[j], Cloud: m.Cloud}
				if err := cc.RunFinal(inst); err != nil && !errors.Is(err, croesus.ErrRetracted) {
					fmt.Printf("  [final]   %v\n", err)
				}
			}
		}
	})

	// ----- Epilogue -----
	st := sys.Manager.Stats()
	fmt.Printf("\ntransactions: %d initial commits, %d final commits, %d apologies\n",
		st.InitialCommits, st.FinalCommits, st.Apologies)
	reservedCount := 0
	for _, b := range buildings {
		for r := 0; r < nRooms; r++ {
			if v, _ := sys.Store.Get(roomKey(b, r)); string(v) == "reserved" {
				reservedCount++
			}
		}
	}
	fmt.Printf("rooms reserved at end of day: %d\n", reservedCount)
}

// centerMost returns the building label whose box center is nearest the
// frame center — the paper's rule for task 2 ("the initial section picks
// the label that is closest to the center of the frame").
func centerMost(labels []croesus.Detection) (croesus.Detection, bool) {
	best, bestDist := croesus.Detection{}, math.Inf(1)
	for _, d := range labels {
		if d.Label != "building" {
			continue
		}
		cx := d.Box.X + d.Box.W/2 - 0.5
		cy := d.Box.Y + d.Box.H/2 - 0.5
		if dist := cx*cx + cy*cy; dist < bestDist {
			best, bestDist = d, dist
		}
	}
	return best, !math.IsInf(bestDist, 1)
}

// relabel maps the airport-derived classes onto campus vocabulary.
func relabel(dets []croesus.Detection) []croesus.Detection {
	out := make([]croesus.Detection, len(dets))
	for i, d := range dets {
		switch d.Label {
		case "airplane":
			d.Label = "building"
		case "truck":
			d.Label = "shuttle"
		}
		out[i] = d
	}
	return out
}
