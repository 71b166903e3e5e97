//go:build race

package core

// raceEnabled narrows the tiered allocation sweep: under the race detector
// sync.Pool drops a share of Puts, so the pooled tier-3 evaluators are not
// reliably reused.
const raceEnabled = true
