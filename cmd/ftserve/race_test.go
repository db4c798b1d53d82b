//go:build race

package main

// raceEnabled reports a -race build, whose timings are not the daemon's.
const raceEnabled = true
