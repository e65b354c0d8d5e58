//go:build race

package main

// raceEnabled reports a -race build.
const raceEnabled = true
