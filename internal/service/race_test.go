//go:build race

package service

// raceEnabled reports a -race build.
const raceEnabled = true
