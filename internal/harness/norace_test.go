//go:build !race

package harness_test

// raceEnabled reports a -race build.
const raceEnabled = false
