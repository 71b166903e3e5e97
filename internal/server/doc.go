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
//	GET  /stats            cache counters, latency histograms, index stats,
//	                       write-path epoch/journal
//	GET  /healthz          liveness, generation, epoch/journal when mutable
//
// Every serving generation — index, graph, result cache, hybrid pool, delta
// overlay, backing snapshot mapping — lives in one RCU state (store.go)
// each request pins for its lifetime, so reloads AND the write path's
// background folds swap generations with zero downtime and exact answers
// throughout (mutable.go drives the fold: build base ∪ journal, optionally
// write + verify a fresh v2 bundle, carry un-folded edges over, swap).
//
// In front of the index sits a sharded LRU result cache (cache.go): lookups
// hash to one of a power-of-two number of independently locked shards, each
// an intrusive-list LRU over a flat node slice. Concurrent identical misses
// are deduplicated singleflight-style — the first caller computes, the rest
// wait on its in-flight handle — so a thundering herd on one hot query costs
// one index probe. Over an immutable generation answers never go stale; on
// mutable servers entries are version-stamped by the journal position, and
// insert-only monotonicity (deletions are rejected) means cached TRUEs stay
// valid across writes while FALSEs revalidate — one insert logically
// invalidates every negative entry without touching memory.
//
// The cache fronts searches, not batched probes. POST /batch (batch.go)
// scans its one accepted schema with a hand-written streaming decoder,
// parses each distinct constraint once per request, hands every resolved
// query straight to Index.QueryBatchIntoCtx and joins the reply in one
// pooled buffer — no allocation per query, and no cache lookup around a
// ~150 ns probe; "cached" in its reply counts hits only when journal edges
// are pending and each query takes the cached overlay path instead.
//
// Latency is tracked per endpoint in lock-free log2-bucket histograms
// (metrics.go); /stats reports mean, p50/p90/p99 upper bounds, and max in
// microseconds.
//
// The Server is wrapped by the rlc facade (rlc.NewServer) and the rlcserve
// command, which adds flag parsing, on-the-fly index construction,
// signal-driven graceful shutdown, SIGHUP reloads, and SIGUSR1 folds.
package server
