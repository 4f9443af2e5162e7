//go:build race

package table_test

// raceEnabled reports that the race detector, whose shadow memory the heap
// figures include, is on.
const raceEnabled = true
