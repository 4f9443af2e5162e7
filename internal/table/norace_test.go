//go:build !race

package table_test

const raceEnabled = false
