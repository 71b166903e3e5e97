package dynamic

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// DefaultRebuildThreshold is the journal size that triggers an automatic
// background fold-and-rebuild.
const DefaultRebuildThreshold = 1024

// segmentSize is how many journal edges accumulate before the writer seals
// them into the copy-on-write adjacency map. Readers scan at most one
// unsealed segment linearly per visited vertex, so the constant bounds the
// per-vertex overhead of the delta search while keeping the per-insert
// sealing cost amortized O(1).
const segmentSize = 32

// ErrDeletionsUnsupported is returned by RemoveEdge.
var ErrDeletionsUnsupported = errors.New("dynamic: edge deletions require a rebuild; the RLC index is insert-only incremental")

// FoldStats describes one completed fold-and-rebuild.
type FoldStats struct {
	// Epoch is the epoch the fold produced (first fold: 1).
	Epoch uint64
	// Folded is the number of journal edges folded into the new base.
	Folded int
	// Journal is the number of un-folded edges carried into the new epoch
	// (edges inserted while the rebuild ran).
	Journal int
	// Duration is the wall time of the fold, including the index build.
	Duration time.Duration
	// Err is non-nil when the rebuild failed; the previous epoch keeps
	// serving and the journal keeps growing.
	Err error
}

// Options configures a DeltaGraph.
type Options struct {
	// RebuildThreshold is the journal size at which an insert triggers a
	// background fold-and-rebuild. Zero means DefaultRebuildThreshold;
	// negative disables automatic rebuilds (the caller folds explicitly
	// with Rebuild, as the serving layer does).
	RebuildThreshold int
	// IndexOptions configures (re)builds of the base index.
	IndexOptions core.Options
	// OnFold, when non-nil, is called after every completed fold — the
	// background ones and explicit Rebuild calls — including failed ones
	// (Err set). It runs on the folding goroutine; keep it quick.
	OnFold func(FoldStats)
}

// view is one immutable epoch of the delta graph: a base graph with its
// index, plus the journal prefix this view can see. Readers load the current
// view with one atomic pointer load and then touch nothing mutable — the
// journal prefix [:jlen] is frozen (the writer only ever appends at >= jlen
// of the newest view), adj is never mutated after publication, and
// constraints is a concurrent map of immutable values.
type view struct {
	epoch uint64
	base  *graph.Graph
	ix    *core.Index

	// journal is the shared append-only edge log; this view reads only
	// journal[:jlen]. The writer may append at index jlen of the NEWEST
	// view (a slot no published view can read), then publish a successor
	// view with a larger jlen — the atomic pointer store orders the write
	// before any read.
	journal []graph.Edge
	jlen    int

	// adj is the copy-on-write union adjacency for the sealed journal
	// prefix [:sealed]: src -> its journal out-edges. Edges in
	// journal[sealed:jlen] (at most one unsealed segment) are found by a
	// linear tail scan instead.
	adj    map[graph.Vertex][]graph.Edge
	sealed int

	// constraints caches, per constraint the overlay search has met (keyed
	// by the index dictionary's packed code, labelseq.Code), its compiled
	// automaton and its target probes. Both reflect only the base graph and
	// index, which are immutable for the whole epoch, so the cache needs no
	// invalidation on inserts — the delta search handles journal paths
	// itself — and is shared by every view of the epoch.
	constraints *sync.Map
}

// constraintCache is one constraints entry: the L+ automaton, compiled once
// per (epoch, constraint), and the target probes built so far.
type constraintCache struct {
	nfa    *automaton.NFA
	probes sync.Map // graph.Vertex -> *core.TargetProbe
}

// DeltaGraph is an RLC-indexed graph that accepts edge insertions while
// answering queries exactly. It is safe for concurrent use: any number of
// goroutines may Query (the read path takes no locks) while others insert,
// and a background goroutine folds the journal into a rebuilt base index
// once it crosses Options.RebuildThreshold — queries never block on, or
// perform, a rebuild.
type DeltaGraph struct {
	opts Options

	// mu serializes writers (AddEdge/AddEdges) and epoch installs. The
	// read path never takes it.
	mu  sync.Mutex
	cur atomic.Pointer[view]

	// foldMu serializes folds (background and explicit Rebuild). foldCtl
	// guards the background-folder bookkeeping: foldRunning dedups folder
	// goroutines, and foldDone is closed when the current folder exits —
	// what Quiesce waits on. (A plain channel instead of a WaitGroup: a
	// reused WaitGroup would race a new folder's Add against a parked
	// Quiesce Wait.)
	foldMu      sync.Mutex
	foldCtl     sync.Mutex
	foldRunning bool
	foldDone    chan struct{}

	// searchers pools the overlay's product searches (see eval.go): one is
	// not concurrent-safe, queries are.
	searchers sync.Pool
}

// New wraps an already-indexed graph. The index must have been built over g.
func New(g *graph.Graph, ix *core.Index, opts Options) *DeltaGraph {
	if opts.RebuildThreshold == 0 {
		opts.RebuildThreshold = DefaultRebuildThreshold
	}
	if opts.IndexOptions == (core.Options{}) {
		// Unconfigured folds inherit the wrapped index's build options (k,
		// packed form, size budget), so every rebuilt epoch keeps the base
		// index's representation — in particular a size-budgeted base stays
		// within its MaxIndexBytes across folds.
		opts.IndexOptions = ix.BuildOptions()
	}
	d := &DeltaGraph{opts: opts}
	n := g.NumVertices()
	d.searchers.New = func() any { return newSearcher(n) }
	d.cur.Store(&view{base: g, ix: ix, adj: map[graph.Vertex][]graph.Edge{}, constraints: &sync.Map{}})
	return d
}

// NewWithJournal wraps an indexed graph and seeds the journal with edges not
// yet folded into it — how the serving layer carries un-folded inserts from
// a retired epoch into the one built from a fresh snapshot. Every edge is
// validated against g like an AddEdge.
func NewWithJournal(g *graph.Graph, ix *core.Index, opts Options, journal []graph.Edge) (*DeltaGraph, error) {
	d := New(g, ix, opts)
	if err := d.AddEdges(journal); err != nil {
		return nil, err
	}
	return d, nil
}

// Build indexes g and wraps it in one step.
func Build(g *graph.Graph, opts Options) (*DeltaGraph, error) {
	ix, err := core.Build(g, opts.IndexOptions)
	if err != nil {
		return nil, err
	}
	return New(g, ix, opts), nil
}

// Graph materializes the current union graph (base + journal). Unlike the
// read path it allocates; it exists for folds, tests, and inspection.
func (d *DeltaGraph) Graph() *graph.Graph {
	v := d.cur.Load()
	return unionGraph(v.base, v.journal[:v.jlen])
}

// Index returns the current epoch's base index. It reflects the base graph
// only; use Query for answers that include journal edges.
func (d *DeltaGraph) Index() *core.Index { return d.cur.Load().ix }

// JournalLen returns the number of edges awaiting a fold.
func (d *DeltaGraph) JournalLen() int { return d.cur.Load().jlen }

// Epoch returns how many folds have completed (0 for the initial base).
func (d *DeltaGraph) Epoch() uint64 { return d.cur.Load().epoch }

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
	nv := v.appendEdges(edges)
	d.cur.Store(nv)
	jlen := nv.jlen
	d.mu.Unlock()
	d.maybeTriggerFold(jlen)
	return nil
}

// appendEdges extends the journal by edges and returns the successor view,
// sealing full segments into a fresh copy-on-write adjacency map. Called
// with d.mu held; the receiver stays untouched.
func (v *view) appendEdges(edges []graph.Edge) *view {
	nv := &view{
		epoch:       v.epoch,
		base:        v.base,
		ix:          v.ix,
		journal:     append(v.journal[:v.jlen], edges...),
		jlen:        v.jlen + len(edges),
		adj:         v.adj,
		sealed:      v.sealed,
		constraints: v.constraints,
	}
	if nv.jlen-nv.sealed >= segmentSize {
		nv.seal()
	}
	return nv
}

// seal folds journal[sealed:jlen] into a fresh adjacency map. Shared
// per-vertex slices are copied in full before extension, so no memory
// reachable from an older view is ever written.
func (v *view) seal() {
	adj := make(map[graph.Vertex][]graph.Edge, len(v.adj)+8)
	for src, es := range v.adj {
		adj[src] = es
	}
	added := make(map[graph.Vertex]int, 8)
	for _, e := range v.journal[v.sealed:v.jlen] {
		added[e.Src]++
	}
	for src, k := range added {
		old := adj[src]
		ne := make([]graph.Edge, len(old), len(old)+k)
		copy(ne, old)
		adj[src] = ne
	}
	for _, e := range v.journal[v.sealed:v.jlen] {
		adj[e.Src] = append(adj[e.Src], e)
	}
	v.adj = adj
	v.sealed = v.jlen
}

// SealedLen returns the sealed journal watermark: every edge in
// journal[:SealedLen()] has been folded into the copy-on-write adjacency
// and frozen for good. Only sealed edges are exported for replication —
// the watermark never moves backwards within an epoch, so an exporter that
// advances a cursor by what ExportSealed returned can never ship an edge
// twice or ship one the writer could still be arranging.
func (d *DeltaGraph) SealedLen() int { return d.cur.Load().sealed }

// ExportSealed copies the sealed journal run [from, SealedLen()) — the
// replication export hook. from must be a cursor previously advanced by
// this method (or 0); a cursor beyond the sealed watermark returns nil.
// The copy is taken from one immutable view, so it is safe against
// concurrent writers and folds; the caller advances its cursor by
// len(result).
func (d *DeltaGraph) ExportSealed(from int) []graph.Edge {
	v := d.cur.Load()
	if from < 0 || from >= v.sealed {
		return nil
	}
	out := make([]graph.Edge, v.sealed-from)
	copy(out, v.journal[from:v.sealed])
	return out
}

// Seal forces the unsealed journal tail into the sealed region, publishing
// a successor view. Replication uses it to flush edges that have not yet
// crossed the segment boundary on their own: a trickle of inserts below
// segmentSize would otherwise sit unexported forever. It is a write-path
// operation (serialized with inserts); readers are unaffected.
func (d *DeltaGraph) Seal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.cur.Load()
	if v.sealed == v.jlen {
		return
	}
	nv := &view{
		epoch:       v.epoch,
		base:        v.base,
		ix:          v.ix,
		journal:     v.journal,
		jlen:        v.jlen,
		adj:         v.adj,
		sealed:      v.sealed,
		constraints: v.constraints,
	}
	nv.seal()
	d.cur.Store(nv)
}

// RemoveEdge always fails: see ErrDeletionsUnsupported.
func (d *DeltaGraph) RemoveEdge(src graph.Vertex, label graph.Label, dst graph.Vertex) error {
	return ErrDeletionsUnsupported
}

// Query answers the RLC query (s, t, L+) over the current epoch's graph
// (base plus journal), exactly. The read path is lock-free: it pins one
// immutable view, tries the base index (sound, because insertions only add
// paths), and only on a miss runs the index-accelerated delta search. It
// never performs or waits for a rebuild.
func (d *DeltaGraph) Query(s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	return d.QueryRLC(context.Background(), s, t, l)
}

// QueryRLC is Query under a context (the facade's Querier interface):
// cancellation and deadlines are checked once per BFS level of the delta
// search, so an abandoned request cannot pin a generation for a whole
// product traversal.
//
// The delta search is the traversal kernel's forward search over the union
// graph (base ∪ journal) along the L+ automaton. Its accept state is the
// period boundary: a vertex y reached there ends a prefix spelling L^j, and
// the witness completes if y is the target or the BASE index carries a
// suffix from y to it — so true answers stop at the first boundary vertex
// whose indexed suffix completes the path. The seed is never probed: that
// probe is exactly the base query that just missed.
func (d *DeltaGraph) QueryRLC(ctx context.Context, s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	v := d.cur.Load()
	ok, err := v.ix.Query(s, t, l)
	if err != nil || ok {
		return ok, err
	}
	if v.jlen == 0 {
		return false, nil
	}
	nfa, probe, err := v.searchFor(t, l)
	if err != nil {
		return false, err
	}
	found := false
	err = d.search(ctx, v, s, nfa, func(y graph.Vertex) bool {
		found = y == t || probe.Reaches(y)
		return found
	})
	return found, err
}

// searchFor returns the epoch's cached automaton for l+ and target probe
// for (·, t, l+). l has passed the index's validation (Query accepted it).
func (v *view) searchFor(t graph.Vertex, l labelseq.Seq) (*automaton.NFA, *core.TargetProbe, error) {
	code := v.ix.ConstraintCode(l)
	c, ok := v.constraints.Load(code)
	if !ok {
		nfa, err := automaton.NewPlus(l, v.base.NumLabels())
		if err != nil {
			return nil, nil, err
		}
		c, _ = v.constraints.LoadOrStore(code, &constraintCache{nfa: nfa})
	}
	cc := c.(*constraintCache)
	p, ok := cc.probes.Load(t)
	if !ok {
		probe, err := v.ix.NewTargetProbe(t, l)
		if err != nil {
			return nil, nil, err
		}
		p, _ = cc.probes.LoadOrStore(t, probe)
	}
	return cc.nfa, p.(*core.TargetProbe), nil
}
