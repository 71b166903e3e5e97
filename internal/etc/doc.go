// Package etc implements the extended transitive closure (ETC) baseline of
// Section VI-a: a forward kernel-based search from every vertex with no
// pruning rules — core.KBS, the search core.BuildReference runs — recording
// for every reachable pair (u, v) every k-MR of every path from u to v in a
// hash map. ETC answers queries as fast as an index but, as Table IV shows,
// its construction time and memory footprint are prohibitive for all but
// the smallest graphs — which is exactly the behaviour the RLC index's
// pruning rules eliminate.
package etc
