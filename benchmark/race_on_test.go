//go:build race

package main

// raceEnabled relaxes TestSmoke's time limit: the in-process traced servers
// run several times slower under the race detector.
const raceEnabled = true
