// Package traversal implements the online product search of the paper
// (Sections III-B and VI): NFA-guided searches over the product of a graph
// and a constraint automaton. BFS and BiBFS are the "BFS" and "BiBFS"
// competitors of the experimental section.
//
// The frontier loop exists once, in the unexported kernel Evaluator.expand:
// one BFS level of one side of a search, parameterised by a successor
// source (Successors), the stepping automaton, that side's epoch-stamped
// marks, optionally the other side's marks (a bidirectional meet) and
// optionally a per-accepting-vertex visit hook. BiBFS and the closure
// searches ReachableFromManyFunc / ReachableIntoManyFunc are short drivers
// around it, and through them so are the budgeted index's tier-3 fallback
// (internal/core), the hybrid evaluator (internal/hybrid) and the delta
// overlay's search (internal/dynamic). There are two successor sources: a
// graph's CSR out/in slices (NewEvaluator), and whatever the caller supplies
// (NewEvaluatorOver) — the overlay passes the base ∪ journal union of one
// pinned view.
//
// BFS and DFS are kept apart on purpose: short self-contained loops over
// the graph that share no code with the kernel, because they are the oracle
// its users are tested against.
//
// An Evaluator owns reusable scratch space (epoch-stamped visited arrays and
// frontier buffers), so evaluating the paper's 1000-query workloads does not
// reallocate per query; a warm BiBFS allocates nothing.
package traversal
