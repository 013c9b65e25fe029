//go:build !race

package node

const raceAllocSlack = 0
