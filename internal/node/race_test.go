//go:build race

package node

// raceAllocSlack is the allocation headroom race builds add to an
// allocation comparison: the race runtime makes sync.Pool drop puts at
// random, so a pooled object is sometimes allocated afresh.
const raceAllocSlack = 6
