//go:build race

package dynamic

// raceEnabled skips the allocation pin: under the race detector sync.Pool
// deliberately drops a share of Puts, so a pooled searcher is not reliably
// reused and its marks are re-allocated.
const raceEnabled = true
