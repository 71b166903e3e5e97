// Package dynamic extends the (static) RLC index to graphs that receive
// edge insertions — the dynamic setting the paper explicitly leaves open
// ("a static and centralized graph", Section II; streaming evaluation is
// cited as orthogonal work).
//
// A DeltaGraph overlays a journal of inserted edges on an indexed base
// graph. Queries stay exact:
//
//  1. If the base index answers true, the answer is true (insertions only
//     add paths, never remove them).
//  2. Otherwise the traversal package's product-search kernel runs over the
//     UNION graph (base + journal), accelerated by the base index: the
//     package supplies only the successor source — one pinned view's base
//     CSR ∪ sealed adjacency ∪ unsealed tail — and a visit hook. The L+
//     automaton's accept state is the period boundary, so whenever the
//     search reaches it at a vertex x, one probe answers whether x reaches
//     the target through base edges alone — any witness path decomposes
//     into a traversed prefix (which may use new edges) and an indexed
//     suffix, and true answers return as soon as the prefix is found.
//     EvalExpr is the same search without the probe, for expressions
//     outside the index's class. This package contains no frontier loop.
//
// # Concurrency: the epoch pipeline
//
// A DeltaGraph is an RCU-style epoch structure. All state a reader touches
// lives in one immutable view — base graph, base index, a frozen journal
// prefix, a copy-on-write union adjacency for the sealed part of the
// journal, and a per-constraint cache of compiled automata and target
// probes — published through a single atomic pointer.
// Any number of goroutines Query without taking a lock while one writer
// appends: inserts extend the shared journal only at positions no published
// view can read, seal full segments into a fresh adjacency map (shared
// per-vertex slices are copied, never extended in place), and publish a
// successor view. The whole structure is -race-clean by construction.
//
// Amortization: when the journal grows past RebuildThreshold edges, the
// insert that crossed the line triggers a BACKGROUND fold — never the query
// path, and never inline on the inserting caller beyond a compare-and-swap.
// The folder materializes the union, rebuilds the index (honoring
// Options.IndexOptions.BuildWorkers; the parallel build is deterministic,
// so the rebuilt index is byte-identical to a sequential rebuild's), and
// installs the next epoch with any concurrently inserted edges carried
// over. Queries pinned to the old epoch keep answering exactly against the
// same edge set throughout; Rebuild folds synchronously and Quiesce waits
// for an in-flight background fold.
//
// The serving layer (internal/server) drives the same epoch machinery
// itself — FoldInput, JournalTail, NewWithJournal — because its folds also
// write v2 snapshot bundles and hot-swap server generations. Deletions are
// not supported (they can invalidate arbitrary entries); delete-heavy
// workloads should rebuild, exactly as the paper's static setting implies.
package dynamic
