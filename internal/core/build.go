package core

import (
	"fmt"
	"runtime"
	"sort"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// BuildStats counts what the indexing algorithm did — useful for tuning
// and for quantifying each pruning rule's contribution.
//
// The algorithm counters (KernelSearchStates through PrunedDup) are a
// deterministic function of the graph and the Options' algorithmic knobs:
// a parallel build (BuildWorkers != 1) reports exactly the same values as
// the sequential one. The scheduling counters below them describe only how
// the parallel scheduler reproduced that sequential trajectory, and are
// zero when the sequential path ran.
type BuildStats struct {
	// KernelSearchStates is the number of (vertex, sequence) states the
	// kernel-search phases visited.
	KernelSearchStates int64
	// KernelBFSRuns is the number of kernel-guided BFS executions (one
	// per kernel candidate per KBS).
	KernelBFSRuns int64
	// KernelBFSNodes is the number of (vertex, phase) nodes those runs
	// dequeued.
	KernelBFSNodes int64
	// Inserted counts recorded entries; PrunedPR1/PR2/Dup count insert
	// attempts each rule rejected.
	Inserted  int64
	PrunedPR1 int64
	PrunedPR2 int64
	PrunedDup int64

	// Workers is the effective worker count the build ran with (1 on the
	// sequential path).
	Workers int
	// Windows is the number of speculate-then-commit rounds the parallel
	// scheduler dispatched.
	Windows int64
	// Speculated counts speculative KBS-pair executions on the workers.
	// Invalidated speculations are retried, so this can exceed the vertex
	// count; the excess is the wasted (parallel) work.
	Speculated int64
	// Committed counts speculations whose buffered inserts were replayed
	// onto the live index unchanged (snapshot validation and the
	// commit-time PR1/PR2/dup re-checks all passed). Committed plus Rerun
	// equals the vertex count.
	Committed int64
	// Rerun counts vertices re-run sequentially at their commit slot
	// because speculation was invalidated twice in a row.
	Rerun int64
}

// Attempts returns the total number of insert attempts.
func (s BuildStats) Attempts() int64 {
	return s.Inserted + s.PrunedPR1 + s.PrunedPR2 + s.PrunedDup
}

// addAlgo accumulates the algorithm counters of one speculation's trajectory
// (the scheduling counters are maintained by the scheduler itself).
func (s *BuildStats) addAlgo(o BuildStats) {
	s.KernelSearchStates += o.KernelSearchStates
	s.KernelBFSRuns += o.KernelBFSRuns
	s.KernelBFSNodes += o.KernelBFSNodes
	s.Inserted += o.Inserted
	s.PrunedPR1 += o.PrunedPR1
	s.PrunedPR2 += o.PrunedPR2
	s.PrunedDup += o.PrunedDup
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
// the insert was pruned by PR1 or PR2 (Examples 5 and 6).
//
// With Options.BuildWorkers != 1 the vertices are processed by the
// deterministic parallel scheduler (see scheduler.go), which produces an
// index — entry lists, dictionary, and serialized bytes — identical to the
// sequential build's.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	ix, _, err := BuildWithStats(g, opts)
	return ix, err
}

// BuildWithStats is Build plus construction counters.
func BuildWithStats(g *graph.Graph, opts Options) (*Index, BuildStats, error) {
	ix, _, _, stats, err := buildWithLists(g, opts)
	return ix, stats, err
}

// buildWithLists is BuildWithStats that also hands back the builder's
// per-vertex Lout/Lin entry lists the index was packed from (after size
// budgeting dropped the demoted ones) — the pre-pack oracle of the
// differential tests.
func buildWithLists(g *graph.Graph, opts Options) (ix *Index, out, in [][]entry, stats BuildStats, err error) {
	k := opts.k()
	if k < 1 || k > MaxK {
		return nil, nil, nil, stats, fmt.Errorf("rlc: recursive k must be in [1, %d], got %d", MaxK, k)
	}
	if opts.BuildWorkers < 0 {
		return nil, nil, nil, stats, fmt.Errorf("rlc: BuildWorkers must be >= 0 (0 = GOMAXPROCS), got %d", opts.BuildWorkers)
	}
	if opts.MaxIndexBytes < 0 {
		return nil, nil, nil, stats, fmt.Errorf("rlc: MaxIndexBytes must be >= 0 (0 = unlimited), got %d", opts.MaxIndexBytes)
	}
	if g.NumVertices() == 0 {
		return nil, nil, nil, stats, fmt.Errorf("rlc: cannot index an empty graph")
	}
	numLabels := g.NumLabels()
	if numLabels == 0 {
		numLabels = 1 // edgeless graph: any tiny dictionary works
	}
	dict, err := labelseq.NewDict(numLabels, k)
	if err != nil {
		return nil, nil, nil, stats, fmt.Errorf("rlc: %w", err)
	}

	n := g.NumVertices()
	ix = &Index{
		g:     g,
		k:     k,
		opts:  opts,
		dict:  dict,
		order: accessOrder(g, opts.Order),
		rank:  make([]int32, n),
	}
	for r, v := range ix.order {
		ix.rank[v] = int32(r)
	}

	b := newBuilder(ix)
	workers := EffectiveBuildWorkers(n, opts.BuildWorkers)
	b.stats.Workers = workers
	if workers == 1 {
		for _, v := range ix.order {
			b.kbs(v, backward)
			b.kbs(v, forward)
		}
	} else {
		runParallelBuild(ix, b, workers)
	}
	if err := ix.seal(b.out, b.in); err != nil {
		return nil, nil, nil, b.stats, err
	}
	return ix, b.out, b.in, b.stats, nil
}

// EffectiveBuildWorkers returns the worker count Build actually runs for a
// graph of numVertices when the caller requests workers (<= 0 meaning
// GOMAXPROCS): the count is clamped to the number of vertices, and one
// worker selects the plain sequential path.
func EffectiveBuildWorkers(numVertices, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numVertices {
		workers = numVertices
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// accessOrder materializes the configured vertex processing order.
func accessOrder(g *graph.Graph, o Order) []graph.Vertex {
	n := g.NumVertices()
	switch o {
	case OrderInOut:
		return graph.OrderByDegreeProduct(g)
	case OrderDegreeSum:
		order := make([]graph.Vertex, n)
		keys := make([]int, n)
		for i := range order {
			order[i] = graph.Vertex(i)
			keys[i] = g.OutDegree(graph.Vertex(i)) + g.InDegree(graph.Vertex(i))
		}
		sort.SliceStable(order, func(i, j int) bool {
			if keys[order[i]] != keys[order[j]] {
				return keys[order[i]] > keys[order[j]]
			}
			return order[i] < order[j]
		})
		return order
	case OrderNatural:
		order := make([]graph.Vertex, n)
		for i := range order {
			order[i] = graph.Vertex(i)
		}
		return order
	case OrderReverse:
		order := make([]graph.Vertex, n)
		for i := range order {
			order[i] = graph.Vertex(n - 1 - i)
		}
		return order
	default:
		return graph.OrderByDegreeProduct(g)
	}
}

// direction selects backward KBS (in-edges, Lout entries) or forward KBS
// (out-edges, Lin entries).
type direction uint8

const (
	backward direction = iota
	forward
)

// side distinguishes the two entry-list families of a vertex for the
// parallel build's read/write tracking: a backward KBS writes Lout lists
// and reads Lin(src); a forward KBS is the mirror image.
type side uint8

const (
	outSide side = 0
	inSide  side = 1
)

// ySide is the side of the lists a KBS in direction dir inserts into (and
// whose contents its PR1/dup checks read).
func ySide(dir direction) side {
	if dir == backward {
		return outSide
	}
	return inSide
}

// fixedSide is the side of the KBS source's fixed entry list — the other
// operand of every PR1 check the KBS issues.
func fixedSide(dir direction) side {
	if dir == backward {
		return inSide
	}
	return outSide
}

// insertStatus reports what insert did with a candidate entry.
type insertStatus uint8

const (
	inserted  insertStatus = iota
	prunedPR1              // reachability derivable from the current snapshot
	prunedPR2              // the visited vertex has a smaller access rank than the source
	prunedDup              // exact entry already present
)
