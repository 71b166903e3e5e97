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
//  2. Otherwise the traversal package's bidirectional search (BiBFS) runs
//     over the UNION graph (base + journal) along the L+ automaton. The
//     package supplies only the two successor sources of one pinned view —
//     out: base out-edges ∪ the sealed journal sorted by source ∪ the
//     unsealed tail; in: the transpose, from base in-edges and the sealed
//     journal sorted by destination. Searching from both ends, always
//     expanding the smaller frontier, makes a false answer cost about the
//     smaller of the two closures instead of the whole forward one.
//     EvalExpr is the same search without step 1, for expressions outside
//     the index's class. This package contains no frontier loop.
//
// # Concurrency
//
// A DeltaGraph is an RCU-style structure. All state a reader touches
// lives in one immutable view — base graph, base index, a frozen journal
// prefix, the sealed part of the journal as two copy-on-write edge lists
// (sorted by source and by destination), and a per-constraint cache of
// compiled automata — published through a single atomic pointer.
// Any number of goroutines Query without taking a lock while one writer
// appends: inserts extend the shared journal only at positions no published
// view can read, seal full segments by merging them into fresh copies of the
// two sorted lists (never in place), and publish a successor view. The
// whole structure is -race-clean by construction.
//
// The seal is the readers' amortization, not an export boundary: it bounds
// the unsealed tail a delta search scans per vertex, and nothing else reads
// it. JournalTail copies journal[from:jlen] of one published view, sealed
// or not — the un-folded edges a fold carries over and the segments
// replication ships. A view's prefix is frozen and a batch is published
// whole, so consecutive copies never tear a batch or repeat an edge.
//
// # Folding
//
// A DeltaGraph never folds and starts no goroutine: it is the overlay of one
// serving generation, and its base index is fixed for its life. The serving
// layer (internal/server, mutable.go) owns the one fold: it materializes the
// union with FoldInput, builds (and bundles) the next base index, and swaps
// in a new generation whose DeltaGraph NewWithJournal seeds with the
// JournalTail inserted while the build ran. Queries pinned to the old
// generation keep answering exactly against its edge set throughout.
// Deletions are not supported (they can invalidate arbitrary entries);
// delete-heavy workloads should rebuild, exactly as the paper's static
// setting implies.
package dynamic
