// Package server is the long-running query-serving layer over an RLC index:
// an HTTP/JSON surface that composes everything on the read path — the CSR
// index (internal/core), the concurrent batch worker pool
// (Index.QueryBatchInto), and the hybrid evaluator fallback for expressions
// outside the index's L+ class (internal/hybrid) — and, when configured
// mutable, the write path of the read/write epoch pipeline (the delta
// overlay of internal/dynamic plus background fold-and-rebuild):
//
//	GET  /query?s=&t=&l=   one query; l is any expression the CLIs accept
//	POST /batch            many (s, t, L+) queries fanned over the pool (batch.go)
//	POST /update           mutable: insert edges (single or atomic batch)
//	POST /rebuild          mutable: fold the journal into a rebuilt base
//	POST /reload           immutable snapshot servers: hot-swap the bundle
//	GET  /stats            latency histograms, index stats, write-path
//	                       epoch/journal
//	GET  /healthz          liveness, generation, epoch/journal when mutable
//
// Every serving generation is a bundle: its index and graph are views of
// one v2 bundle's bytes, whether the bundle was read from disk, shipped by a
// leader, or rendered once from an index built in this process (New, and
// every fold). The bundle, its index and graph, the hybrid pool and the
// delta overlay live in one immutable state (store.go) that each request
// loads once and keeps for its lifetime, so reloads AND the write path's
// background folds swap generations with zero downtime and exact answers
// throughout (mutable.go drives the fold: build base ∪ journal, render and
// verify its bundle, write it to Options.RebuildPath when set, carry
// un-folded edges over, swap). A generation is heap memory throughout: a
// swap releases nothing, and the garbage collector retires the old
// generation once the last request holding it returns.
//
// Nothing sits in front of the index: a probe costs 100–250 ns, less than
// the bookkeeping of a result cache that would save it, so every read is
// parse → compute → append. GET /query
// (query.go) reads s, t and l out of the raw query string where it lies,
// resolves them, calls computeSeq (or computeExpr for a multi-segment
// expression) under the request's own context, writes the reply into a
// pooled buffer and sends it with one Write. POST /batch (batch.go) scans its
// one accepted schema with a hand-written streaming decoder, parses each
// distinct constraint once per generation, hands every resolved query
// straight to Index.QueryBatchIntoCtx — or, with journal edges pending, each
// one in the index's class to the same computeSeq one by one, so a
// constraint outside the class is refused the same way on every generation
// — and joins the reply in one pooled buffer. Neither
// endpoint allocates per query beyond the constraint parse; fuzzers hold both
// hand-written halves of each to net/url and encoding/json. On a mutable
// server exactness under writes rests on the journal alone: a read loads one
// generation and searches base ∪ journal as of its own start. "cached" stays
// in both replies, constant (false, 0), for the clients that decode it.
//
// Server.Serve speaks HTTP/1.1 through internal/httpd's connection loop, not
// net/http.Server: http.ReadRequest parses each head, the handler runs on the
// connection's goroutine, and a reply that fits the buffer leaves in one
// Write. A request's context is its connection's — cancelled when the
// connection ends or the server is closed, not when a client hangs up
// mid-request.
//
// Latency is tracked per endpoint in lock-free log2-bucket histograms
// (metrics.go); /stats reports mean, p50/p90/p99 upper bounds, and max in
// microseconds.
//
// The Server is wrapped by the rlc facade (rlc.NewServer) and by two
// commands: rlcserve serves a bundle read-only, with signal-driven graceful
// shutdown and SIGHUP reloads, and rlccluster runs the mutable server as a
// replication leader or follower (internal/cluster).
package server
