package dynamic

import (
	"context"
	"fmt"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// searcher is a pooled product search over one pinned view: a traversal
// evaluator whose two successor sources are the view's union adjacency, out
// and in. The evaluator is built once around them; pinning a view only
// re-points v, so a query touches no lock and no memory another goroutine
// may write.
type searcher struct {
	ev *traversal.Evaluator
	v  *view
	// nbrs/lbls are the scratch a vertex's union adjacency is composed in,
	// shared by both directions: a source's slices live until its next call.
	nbrs []graph.Vertex
	lbls []graph.Label
}

// out is the union out-edge source and in its transpose.
func (sr *searcher) out(x graph.Vertex) ([]graph.Vertex, []graph.Label) {
	nbrs, lbls := sr.v.base.OutEdges(x)
	return sr.union(x, nbrs, lbls, sr.v.bySrc, srcOf, dstOf)
}

func (sr *searcher) in(x graph.Vertex) ([]graph.Vertex, []graph.Label) {
	nbrs, lbls := sr.v.base.InEdges(x)
	return sr.union(x, nbrs, lbls, sr.v.byDst, dstOf, srcOf)
}

// union composes x's edges in one direction: its base CSR edges (nbrs,
// lbls), its span of the sealed journal list sorted by key, and a linear
// scan of the one unsealed journal segment; far is the end a journal edge
// leads to. Vertices no journal edge touches — almost all of them — return
// the base CSR views untouched.
func (sr *searcher) union(x graph.Vertex, nbrs []graph.Vertex, lbls []graph.Label, sorted []graph.Edge, key, far edgeEnd) ([]graph.Vertex, []graph.Label) {
	v := sr.v
	sr.nbrs, sr.lbls = sr.nbrs[:0], sr.lbls[:0]
	for _, e := range span(sorted, key, x) {
		sr.nbrs, sr.lbls = append(sr.nbrs, far(e)), append(sr.lbls, e.Label)
	}
	for _, e := range v.journal[v.sealed:v.jlen] {
		if key(e) == x {
			sr.nbrs, sr.lbls = append(sr.nbrs, far(e)), append(sr.lbls, e.Label)
		}
	}
	if len(sr.nbrs) == 0 {
		return nbrs, lbls
	}
	sr.nbrs, sr.lbls = append(sr.nbrs, nbrs...), append(sr.lbls, lbls...)
	return sr.nbrs, sr.lbls
}

// newSearcher builds a searcher for graphs on n vertices. The vertex
// universe is fixed for a DeltaGraph's life (inserts outside it are
// rejected), so a pooled evaluator's marks fit every view.
func newSearcher(n int) *searcher {
	sr := &searcher{}
	sr.ev = traversal.NewEvaluatorOver(n, sr.out, sr.in)
	return sr
}

// reaches reports whether the union graph of v has a path from s to t that
// nfa accepts, by BiBFS on a pooled searcher. ctx is checked once per BFS
// level.
func (d *DeltaGraph) reaches(ctx context.Context, v *view, s, t graph.Vertex, nfa *automaton.NFA) (bool, error) {
	sr := d.searchers.Get().(*searcher)
	sr.v = v
	ok, err := sr.ev.BiBFSCtx(ctx, s, t, nfa)
	sr.v = nil // a parked searcher must not keep a superseded view alive
	d.overlaySearches.Add(1)
	d.overlayVisited.Add(uint64(sr.ev.LastVisited))
	d.searchers.Put(sr)
	return ok, err
}

// EvalExpr answers an arbitrary path expression (any concatenation of plus
// segments, including constraints outside the index's class) over the
// current union graph, exactly, by the traversal kernel's BiBFS over the
// union successor sources. It carries no index acceleration — the
// serving layer routes here only when the journal is non-empty and the
// expression falls outside the single-L+ index class — but like Query it is
// lock-free and safe for any number of concurrent callers.
func (d *DeltaGraph) EvalExpr(s, t graph.Vertex, e automaton.Expr) (bool, error) {
	return d.EvalExprCtx(context.Background(), s, t, e)
}

// EvalExprCtx is EvalExpr under a context, checked once per BFS level.
func (d *DeltaGraph) EvalExprCtx(ctx context.Context, s, t graph.Vertex, e automaton.Expr) (bool, error) {
	v := d.cur.Load()
	n := graph.Vertex(v.base.NumVertices())
	if s < 0 || s >= n || t < 0 || t >= n {
		return false, fmt.Errorf("%w: query (%d, %d) outside [0, %d)", core.ErrVertexRange, s, t, n)
	}
	nfa, err := automaton.Compile(e, v.base.NumLabels())
	if err != nil {
		return false, err
	}
	return d.reaches(ctx, v, s, t, nfa)
}
