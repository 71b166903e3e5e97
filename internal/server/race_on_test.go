//go:build race

package server

// raceEnabled skips the end-to-end allocation pin: under the race detector
// sync.Pool drops a share of Puts, so the pooled text reader, header sorter
// and reply buffer behind a request are not reliably reused.
const raceEnabled = true
