// Package cluster implements the replicated serving tier: a leader that
// streams its insert journal and ships folded snapshot bundles, and
// followers that replay both to serve read traffic at scale.
//
// The leader wraps a mutable server.Server and adds two endpoints to its
// handler:
//
//	GET /repl/segments?from=<seq>&wait_ms=<d>   journal segments from a global sequence (long-poll)
//	GET /repl/bundle?epoch=<e>                  the folded .rlcs bundle serving epoch e
//
// Both answer with a handshake in response headers — origin, epoch,
// sequence, folded base, and base-graph fingerprint — so a follower can
// refuse a foreign log before applying a single edge. Segment payloads are
// length-prefixed frames, each carrying a crc32c over its own bytes (see
// wire.go); a bundle ships as the raw .rlcs container, whose section
// checksums the follower re-verifies before adopting it.
//
// A follower drives the whole protocol from one loop: long-poll segments
// from its own applied sequence, apply them through the server's exact
// batch-insert path, and — when the leader's epoch moves past its own —
// download the folded bundle, verify it, and hot-swap onto it through the
// same swap local folds use. Queries on the follower never block and
// never regress: the global sequence (folded base + journal position) is
// monotone through every cutover.
package cluster
