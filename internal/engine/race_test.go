//go:build race

package engine

// raceEnabled reports that the race detector is on: it makes sync.Pool drop
// puts at random, so an allocation count over pooled scratch is noise.
const raceEnabled = true
