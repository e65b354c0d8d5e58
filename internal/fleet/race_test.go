//go:build race

package fleet

// raceEnabled reports a -race build.
const raceEnabled = true
