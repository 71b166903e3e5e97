package dynamic

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// segmentSize is how many journal edges accumulate before the writer seals
// them into the copy-on-write sorted lists. Readers scan at most one
// unsealed segment linearly per visited vertex, so the constant bounds the
// per-vertex overhead of the delta search while a seal's merge (linear in
// the sealed journal, which the next fold bounds) is shared by a whole
// segment.
const segmentSize = 32

// ErrDeletionsUnsupported is returned by RemoveEdge.
var ErrDeletionsUnsupported = errors.New("dynamic: edge deletions require a rebuild; the RLC index is insert-only incremental")

// Options is accepted by New and ignored: a DeltaGraph never folds, so it
// has nothing to configure. It stays so that callers written against the
// folding overlay (benchmark/trace.go) still compile.
type Options struct {
	// RebuildThreshold is ignored. The serving layer's threshold is
	// server.Options.RebuildThreshold.
	RebuildThreshold int
}

// view is one immutable state of the overlay: a base graph with its index,
// plus the journal prefix this view can see. Readers load the current view
// with one atomic pointer load and then touch nothing mutable — the journal
// prefix [:jlen] is frozen (the writer only ever appends at >= jlen of the
// newest view), bySrc and byDst are never mutated after publication, and
// constraints is a concurrent map of immutable values.
type view struct {
	base *graph.Graph
	ix   *core.Index

	// journal is the shared append-only edge log; this view reads only
	// journal[:jlen]. The writer may append at index jlen of the NEWEST
	// view (a slot no published view can read), then publish a successor
	// view with a larger jlen — the atomic pointer store orders the write
	// before any read.
	journal []graph.Edge
	jlen    int

	// bySrc and byDst hold the sealed journal prefix [:sealed] twice, sorted
	// by source and by destination, so one binary search (span) finds a
	// vertex's journal out-edges or in-edges. They are copy-on-write: seal
	// merges into fresh slices. Edges in journal[sealed:jlen] (at most one
	// unsealed segment) are found by a linear tail scan instead.
	bySrc, byDst []graph.Edge
	sealed       int

	// constraints caches, per constraint the overlay search has met (keyed
	// by the index dictionary's packed code, labelseq.Code), its compiled L+
	// automaton (*automaton.NFA, which carries its own reverse). An automaton
	// depends only on the constraint and the label universe, so the cache
	// needs no invalidation on inserts and is shared by every view of the
	// DeltaGraph; each generation starts an empty one, which bounds its size.
	constraints *sync.Map
}

// DeltaGraph is an RLC-indexed graph that accepts edge insertions while
// answering queries exactly. It is safe for concurrent use: any number of
// goroutines may Query (the read path takes no locks) while others insert.
// It never folds: its base index is fixed for its life, and the serving
// layer folds by building the next base from FoldInput and wrapping it in a
// new DeltaGraph seeded with JournalTail.
type DeltaGraph struct {
	// mu serializes writers (AddEdge/AddEdges). The read path never
	// takes it.
	mu  sync.Mutex
	cur atomic.Pointer[view]

	// searchers pools the overlay's product searches (see eval.go): one is
	// not concurrent-safe, queries are.
	searchers sync.Pool

	// overlaySearches and overlayVisited count the overlay searches run and
	// the product nodes they marked. Only a search adds to them — never the
	// base-index fast path.
	overlaySearches, overlayVisited atomic.Uint64
}

// New wraps an already-indexed graph. The index must have been built over g.
// opts is ignored (see Options).
func New(g *graph.Graph, ix *core.Index, _ Options) *DeltaGraph {
	d := &DeltaGraph{}
	n := g.NumVertices()
	d.searchers.New = func() any { return newSearcher(n) }
	d.cur.Store(&view{base: g, ix: ix, constraints: &sync.Map{}})
	return d
}

// NewWithJournal wraps an indexed graph and seeds the journal with edges not
// yet folded into it — how the serving layer carries un-folded inserts from
// a retired generation into the one built from a fresh snapshot. Every edge
// is validated against g like an AddEdge.
func NewWithJournal(g *graph.Graph, ix *core.Index, journal []graph.Edge) (*DeltaGraph, error) {
	d := New(g, ix, Options{})
	if err := d.AddEdges(journal); err != nil {
		return nil, err
	}
	return d, nil
}

// Build indexes g under opts and wraps it in one step.
func Build(g *graph.Graph, opts core.Options) (*DeltaGraph, error) {
	ix, err := core.Build(g, opts)
	if err != nil {
		return nil, err
	}
	return New(g, ix, Options{}), nil
}

// Graph materializes the current union graph (base + journal). Unlike the
// read path it allocates; it exists for tests and inspection.
func (d *DeltaGraph) Graph() *graph.Graph {
	union, _ := d.FoldInput()
	return union
}

// JournalLen returns the number of edges awaiting a fold.
func (d *DeltaGraph) JournalLen() int { return d.cur.Load().jlen }

// validateEdge checks an insert against the fixed vertex/label universe,
// wrapping the index's typed sentinels so callers (and HTTP clients, via the
// serving layer's error codes) classify failures without parsing text.
func validateEdge(g *graph.Graph, src graph.Vertex, label graph.Label, dst graph.Vertex) error {
	n := graph.Vertex(g.NumVertices())
	if src < 0 || src >= n {
		return fmt.Errorf("%w: source %d out of range [0, %d)", core.ErrVertexRange, src, n)
	}
	if dst < 0 || dst >= n {
		return fmt.Errorf("%w: destination %d out of range [0, %d)", core.ErrVertexRange, dst, n)
	}
	if label < 0 || int(label) >= g.NumLabels() {
		return fmt.Errorf("%w: label %d outside the base label set of %d", core.ErrUnknownLabel, label, g.NumLabels())
	}
	return nil
}

// AddEdge inserts a directed labeled edge. Vertices and labels beyond the
// base graph's range are rejected with errors wrapping ErrVertexRange /
// ErrUnknownLabel — grow the graph and rebuild for schema changes. Duplicate
// edges are accepted and deduplicated at fold time.
func (d *DeltaGraph) AddEdge(src graph.Vertex, label graph.Label, dst graph.Vertex) error {
	return d.AddEdges([]graph.Edge{{Src: src, Dst: dst, Label: label}})
}

// AddEdges inserts a batch atomically: either every edge validates and the
// batch becomes visible to readers in one publish, or none of it does.
func (d *DeltaGraph) AddEdges(edges []graph.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	d.mu.Lock()
	v := d.cur.Load()
	for _, e := range edges {
		if err := validateEdge(v.base, e.Src, e.Label, e.Dst); err != nil {
			d.mu.Unlock()
			return err
		}
	}
	d.cur.Store(v.appendEdges(edges))
	d.mu.Unlock()
	return nil
}

// appendEdges extends the journal by edges and returns the successor view,
// sealing full segments into fresh copy-on-write sorted lists. Called with
// d.mu held; the receiver stays untouched.
func (v *view) appendEdges(edges []graph.Edge) *view {
	nv := *v
	nv.journal = append(v.journal[:v.jlen], edges...)
	nv.jlen += len(edges)
	if nv.jlen-nv.sealed >= segmentSize {
		nv.seal()
	}
	return &nv
}

// seal merges journal[sealed:jlen] into fresh sorted lists, so no memory
// reachable from an older view is ever written.
func (v *view) seal() {
	fresh := v.journal[v.sealed:v.jlen]
	v.bySrc = merge(v.bySrc, fresh, srcOf)
	v.byDst = merge(v.byDst, fresh, dstOf)
	v.sealed = v.jlen
}

// An edgeEnd picks one endpoint of an edge: the key a sealed list is sorted
// by, or the far end a search moves to.
type edgeEnd func(graph.Edge) graph.Vertex

func srcOf(e graph.Edge) graph.Vertex { return e.Src }
func dstOf(e graph.Edge) graph.Vertex { return e.Dst }

// merge returns a fresh list of sorted (ascending by key) and fresh (any
// order) together, ascending by key.
func merge(sorted, fresh []graph.Edge, key edgeEnd) []graph.Edge {
	add := slices.Clone(fresh)
	slices.SortFunc(add, func(a, b graph.Edge) int { return cmp.Compare(key(a), key(b)) })
	out := make([]graph.Edge, 0, len(sorted)+len(add))
	for len(sorted) > 0 && len(add) > 0 {
		if key(add[0]) < key(sorted[0]) {
			out, add = append(out, add[0]), add[1:]
		} else {
			out, sorted = append(out, sorted[0]), sorted[1:]
		}
	}
	return append(append(out, sorted...), add...)
}

// span returns the run of sorted (ascending by key) whose key is x.
func span(sorted []graph.Edge, key edgeEnd, x graph.Vertex) []graph.Edge {
	lo, _ := slices.BinarySearchFunc(sorted, x, func(e graph.Edge, x graph.Vertex) int { return cmp.Compare(key(e), x) })
	hi := lo
	for hi < len(sorted) && key(sorted[hi]) == x {
		hi++
	}
	return sorted[lo:hi]
}

// RemoveEdge always fails: see ErrDeletionsUnsupported.
func (d *DeltaGraph) RemoveEdge(src graph.Vertex, label graph.Label, dst graph.Vertex) error {
	return ErrDeletionsUnsupported
}

// Query answers the RLC query (s, t, L+) over base plus journal, exactly. The read path is lock-free: it pins one
// immutable view, tries the base index (sound, because insertions only add
// paths), and only on a miss runs the bidirectional delta search. It never
// performs or waits for a rebuild.
func (d *DeltaGraph) Query(s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	return d.QueryRLC(context.Background(), s, t, l)
}

// QueryRLC is Query under a context (the facade's Querier interface):
// cancellation and deadlines are checked once per BFS level of the delta
// search, so an abandoned request cannot hold a generation for a whole
// product traversal.
//
// The delta search is the traversal kernel's BiBFS over the union graph
// (base ∪ journal) along the L+ automaton: forward from s over the union
// out-edges, backward from t over the union in-edges, always expanding the
// smaller frontier. A false answer therefore costs about the smaller of the
// two closures, not the whole forward one — and never more than their sum.
func (d *DeltaGraph) QueryRLC(ctx context.Context, s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	v := d.cur.Load()
	ok, err := v.ix.Query(s, t, l)
	if err != nil || ok {
		return ok, err
	}
	if v.jlen == 0 {
		return false, nil
	}
	nfa, err := v.automatonFor(l)
	if err != nil {
		return false, err
	}
	return d.reaches(ctx, v, s, t, nfa)
}

// automatonFor returns the DeltaGraph's cached automaton for l+. l has passed the
// index's validation (Query accepted it).
func (v *view) automatonFor(l labelseq.Seq) (*automaton.NFA, error) {
	code := v.ix.ConstraintCode(l)
	c, ok := v.constraints.Load(code)
	if !ok {
		nfa, err := automaton.NewPlus(l, v.base.NumLabels())
		if err != nil {
			return nil, err
		}
		c, _ = v.constraints.LoadOrStore(code, nfa)
	}
	return c.(*automaton.NFA), nil
}

// OverlayStats reports how many overlay searches this DeltaGraph has run and
// how many product nodes they marked in total (traversal's LastVisited). A
// query the base index answers is not a search.
func (d *DeltaGraph) OverlayStats() (searches, visited uint64) {
	return d.overlaySearches.Load(), d.overlayVisited.Load()
}
