// Package traversal implements the online product search of the paper
// (Sections III-B and VI): NFA-guided searches over the product of a graph
// and a constraint automaton. BFS and BiBFS are the "BFS" and "BiBFS"
// competitors of the experimental section.
//
// The frontier loop exists once, in the unexported kernel Evaluator.expand:
// one BFS level of one side of a search, parameterised by a successor
// source (Successors), the stepping automaton, that side's epoch-stamped
// marks, optionally the other side's marks (a bidirectional meet) and
// optionally a per-accepting-vertex visit hook. BiBFS (one level loop,
// BiBFSCtx, which BiBFS runs under a background context) and the closure
// searches ReachableFromManyFunc / ReachableIntoManyFunc are short drivers
// around it, and through them so are the budgeted index's tier-3 fallback
// (internal/core, BiBFS), the hybrid evaluator (internal/hybrid, closures)
// and the delta overlay's reads (internal/dynamic, BiBFSCtx). There are two
// pairs of successor sources: a graph's CSR out/in slices (NewEvaluator),
// and whatever out/in pair the caller supplies (NewEvaluatorOver) — the
// overlay passes the base ∪ journal union of one pinned view in both
// directions, so its searches run from both ends like any other BiBFS.
//
// BFS and DFS are kept apart on purpose: short self-contained loops over
// the graph that share no code with the kernel, because they are the oracle
// its users are tested against.
//
// An Evaluator owns reusable scratch space (epoch-stamped visited arrays and
// frontier buffers), so evaluating the paper's 1000-query workloads does not
// reallocate per query; a warm BiBFS allocates nothing.
package traversal
