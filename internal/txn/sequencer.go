package txn

import (
	"croesus/internal/vclock"
)

// Sequencer orders transactions in batches so that conflicting transactions
// never overlap — the paper's MS-IA implementation detail that yields a 0%
// abort rate in Figure 6(b) ("our implementation uses a single-threaded
// sequencer to order transactions in batches so that conflicting
// transactions do not overlap").
//
// A batch is partitioned greedily into waves: within a wave no two
// instances conflict (on their initial sections' declared sets), so a wave
// runs concurrently; waves run one after another. Conflict is the §4.1
// definition: a shared key with at least one writer.
type Sequencer struct {
	CC  CC
	Clk vclock.Clock
}

type footprint struct {
	reads, writes map[string]bool
}

func newFootprint() footprint {
	return footprint{reads: map[string]bool{}, writes: map[string]bool{}}
}

func footprintOf(in *Instance) footprint {
	fp := newFootprint()
	for _, k := range in.T.InitialRW.Reads {
		fp.reads[k] = true
	}
	for _, k := range in.T.InitialRW.Writes {
		fp.writes[k] = true
	}
	return fp
}

func (a footprint) conflicts(b footprint) bool {
	for k := range a.writes {
		if b.writes[k] || b.reads[k] {
			return true
		}
	}
	for k := range b.writes {
		if a.reads[k] {
			return true
		}
	}
	return false
}

func (a footprint) absorb(b footprint) {
	for k := range b.reads {
		a.reads[k] = true
	}
	for k := range b.writes {
		a.writes[k] = true
	}
}

// Waves partitions instances into conflict-free groups, preserving batch
// order within each group. Exported for tests and ablation benches.
func Waves(instances []*Instance) [][]*Instance {
	var waves [][]*Instance
	var waveFPs []footprint
	for _, in := range instances {
		fp := footprintOf(in)
		placed := false
		for w := range waves {
			if !waveFPs[w].conflicts(fp) {
				waves[w] = append(waves[w], in)
				waveFPs[w].absorb(fp)
				placed = true
				break
			}
		}
		if !placed {
			waves = append(waves, []*Instance{in})
			merged := newFootprint()
			merged.absorb(fp)
			waveFPs = append(waveFPs, merged)
		}
	}
	return waves
}

// RunInitialBatch executes the initial sections of a batch wave by wave.
// Within a wave no transactions conflict, so no lock acquisition can fail
// and the batch completes without aborts even under a NoWait-configured CC.
// Errors are reported per instance, index-aligned with the input.
func (s *Sequencer) RunInitialBatch(instances []*Instance) []error {
	errs := make([]error, len(instances))
	index := make(map[*Instance]int, len(instances))
	for i, in := range instances {
		index[in] = i
	}
	for _, wave := range Waves(instances) {
		// Wave members run as clock participants so section bodies may
		// sleep and block on gates; the caller joins on per-member gates.
		gates := make([]vclock.Gate, len(wave))
		for i, in := range wave {
			i, in := i, in
			gates[i] = s.Clk.NewGate()
			s.Clk.Go(func() {
				defer gates[i].Fire()
				errs[index[in]] = s.CC.RunInitial(in)
			})
		}
		for _, g := range gates {
			g.Wait()
		}
	}
	return errs
}
