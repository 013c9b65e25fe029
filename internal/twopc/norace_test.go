//go:build !race

package twopc

const raceAllocSlack = 0
