//go:build race

package twopc

// raceAllocSlack is the allocation headroom race builds add to a ceiling:
// the race runtime makes sync.Pool drop puts at random, so a pooled object
// is sometimes allocated afresh.
const raceAllocSlack = 6
