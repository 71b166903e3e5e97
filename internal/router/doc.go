// Package router is the client-facing entry point of a replicated RLC
// serving tier: it fans reads out over follower replicas, forwards writes
// to the leader, and hands every client a consistency token so reads never
// go backwards even as replicas lag, fail, and cut over epochs.
//
// Routing is health-aware: a background poller reads each replica's
// /healthz — role, applied sequence (journal_seq), epoch, and bundle
// fingerprint — and the dispatcher only considers replicas it has seen
// healthy. The cached sequence is a safe lower bound (a replica's sequence
// only grows), so the pinning rule is race-free without per-request
// coordination: a request pinned at (epoch, seq) is routed only to
// replicas whose known sequence is at least seq, with the leader as the
// always-consistent fallback.
//
// Tokens ride the X-Rlc-Pin header (or pin= query parameter) as
// "epoch:seq". Every response carries the token back, advanced to the
// serving replica's coordinates when those are newer — echo it into the
// next request and reads are monotone and read-your-writes across the
// whole tier: an update's response token covers the write, and any replica
// at or past it reflects the write (inserts are monotone, so sequence
// dominance implies answer dominance).
//
// Tail latency is hedged: when the first-choice replica has not answered
// within the hedge delay, the same query is fired at a second eligible
// replica and the first response wins. Hedging applies to idempotent reads
// only; writes go to the leader, and are sent a second time only when a
// dead pooled connection took no byte of the first.
//
// The hop itself is the package's own client (upstream.go), not net/http's:
// every backend has a pool of keep-alive HTTP/1.1 connections, a request
// leaves in one Write from the connection's scratch, and the reply is
// parsed in place by a reader that accepts a strict subset of what
// http.ReadResponse accepts and closes the connection on anything else. The
// first attempt of a read runs on the handler's goroutine, waiting for the
// first reply byte under a read deadline of the hedge delay; only a slow or
// failed first attempt starts a race of goroutines, and a race closes its
// losers' connections instead of pooling them, so a late reply can never be
// read by another request. Health polls use the same pool. GET /stats
// counts what the slow paths did and what each backend served.
//
// The router's own clients are served by internal/httpd, the connection
// loop of every serving binary. A /update or /batch body past the
// replicas' cap (server.DefaultMaxBodyBytes) is refused here, 413 with code
// body_too_large, before a backend connection is taken.
package router
