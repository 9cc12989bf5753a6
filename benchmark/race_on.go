//go:build race

package main

// raceSlowdown stretches wall-clock limits when the race detector's
// instrumentation (10–20× slower here) is compiled in.
const raceSlowdown = 50
