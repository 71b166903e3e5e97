package core

import (
	"fmt"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// BuildStats counts what the indexing algorithm did — useful for tuning
// and for quantifying each pruning rule's contribution. Every counter is a
// deterministic function of the graph and the Options.
type BuildStats struct {
	// KernelSearchStates is the number of (vertex, sequence) states the
	// kernel-search phases visited. A search does not visit a depth-k
	// state ranked before its source — PR2 would reject it, and it would
	// seed and expand nothing — so those states are not counted.
	KernelSearchStates int64
	// KernelBFSRuns is the number of kernel-guided BFS executions: one
	// per kernel candidate of a KBS with a frontier vertex to seed. Only a
	// vertex whose kernel-search insert succeeded seeds, so a kernel whose
	// inserts were all rejected runs none.
	KernelBFSRuns int64
	// KernelBFSNodes is the number of (vertex, phase) nodes those runs
	// dequeued.
	KernelBFSNodes int64
	// Inserted counts recorded entries; PrunedPR1 and PrunedPR2 count
	// insert attempts each rule rejected. A kernel-BFS step that completes
	// a period does not visit the neighbours ranked before the source —
	// PR2 would reject them and PR3 then stop there — so PrunedPR2 counts
	// the kernel searches' rejections of states short of depth k alone
	// (see KernelSearchStates), which k = 1 has none of.
	Inserted  int64
	PrunedPR1 int64
	PrunedPR2 int64
}

// Attempts returns the total number of insert attempts.
func (s BuildStats) Attempts() int64 {
	return s.Inserted + s.PrunedPR1 + s.PrunedPR2
}

// Build constructs the RLC index for g — Algorithm 2 of the paper. Vertices
// are processed in IN-OUT order; each runs a backward KBS (creating Lout
// entries at the vertices that reach it) and a forward KBS (creating Lin
// entries at the vertices it reaches).
//
// A note on two pseudocode details that the paper's own running examples
// disambiguate (an implementation choice the original paper leaves open): the kernel-search frontier registers
// the newly visited endpoint of each path (Example 5), and the kernel-BFS
// keeps expanding after a *successful* insert but stops — rule PR3 — when
// the insert was pruned by PR1 or PR2 (Examples 5 and 6). BuildReference
// (reference.go) is that algorithm as stated. Build takes three shortcuts:
// the kernel search applies PR3 too — an endpoint whose own insert was
// pruned is not registered, so it seeds no kernel-BFS — a depth-k state
// ranked before the source is not visited at all, and kernel BFS does not
// look at the neighbours PR2 would reject (builder.go, kbs, argues why the
// index does not change; the tests check that it writes BuildReference's
// bytes).
func Build(g *graph.Graph, opts Options) (*Index, error) {
	ix, _, err := BuildWithStats(g, opts)
	return ix, err
}

// BuildWithStats is Build plus construction counters.
func BuildWithStats(g *graph.Graph, opts Options) (*Index, BuildStats, error) {
	ix, _, _, stats, err := buildWithLists(g, opts, graph.OrderByDegreeProduct(g))
	return ix, stats, err
}

// buildWithLists is BuildWithStats over a given access order (the tests run
// the ablation's orders too) that also hands back the builder's per-vertex
// Lout/Lin entry lists the index was packed from (after size budgeting
// dropped the demoted ones) — the pre-pack oracle of the differential tests.
func buildWithLists(g *graph.Graph, opts Options, order []graph.Vertex) (ix *Index, out, in [][]entry, stats BuildStats, err error) {
	if ix, err = newIndex(g, opts, order); err != nil {
		return nil, nil, nil, stats, err
	}
	// The builder works in rank space: source r is vertex ix.order[r], and
	// its lists come back indexed by rank.
	n := g.NumVertices()
	b := newBuilder(ix)
	for r := range int32(n) {
		b.kbs(r, lout) // backward
		b.kbs(r, lin)  // forward
	}
	out, in = make([][]entry, n), make([][]entry, n)
	for r, v := range ix.order {
		out[v], in[v] = b.lists[lout][r], b.lists[lin][r]
	}
	if err := ix.seal(out, in, opts.MaxIndexBytes); err != nil {
		return nil, nil, nil, b.stats, err
	}
	return ix, out, in, b.stats, nil
}

// newIndex validates opts and returns the index both builders fill and
// seal: an empty MR dictionary over g's labels, and order, a permutation of
// g's vertices, as the access order.
func newIndex(g *graph.Graph, opts Options, order []graph.Vertex) (*Index, error) {
	k := opts.k()
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("rlc: recursive k must be in [1, %d], got %d", MaxK, k)
	}
	if opts.MaxIndexBytes < 0 {
		return nil, fmt.Errorf("rlc: MaxIndexBytes must be >= 0 (0 = unlimited), got %d", opts.MaxIndexBytes)
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("rlc: cannot index an empty graph")
	}
	numLabels := g.NumLabels()
	if numLabels == 0 {
		numLabels = 1 // edgeless graph: any tiny dictionary works
	}
	dict, err := labelseq.NewDict(numLabels, k)
	if err != nil {
		return nil, fmt.Errorf("rlc: %w", err)
	}
	ix := &Index{
		g:     g,
		k:     k,
		dict:  dict,
		order: order,
		rank:  make([]int32, g.NumVertices()),
	}
	for r, v := range ix.order {
		ix.rank[v] = int32(r)
	}
	return ix, nil
}
