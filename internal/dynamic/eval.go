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
// evaluator whose successor source is the view's union adjacency. The
// evaluator is built once around out; pinning a view only re-points v, so a
// query touches no lock and no memory another goroutine may write.
type searcher struct {
	ev *traversal.Evaluator
	v  *view
	// dsts/lbls are the scratch a vertex's union adjacency is composed in.
	dsts []graph.Vertex
	lbls []graph.Label
}

// out is the union successor source: x's base CSR edges, its sealed
// copy-on-write journal edges, and a linear scan of the one unsealed journal
// segment. Vertices no journal edge leaves — almost all of them — return the
// base CSR views untouched.
func (sr *searcher) out(x graph.Vertex) ([]graph.Vertex, []graph.Label) {
	v := sr.v
	dsts, lbls := v.base.OutEdges(x)
	sr.dsts, sr.lbls = sr.dsts[:0], sr.lbls[:0]
	for _, e := range v.adj[x] {
		sr.dsts, sr.lbls = append(sr.dsts, e.Dst), append(sr.lbls, e.Label)
	}
	for _, e := range v.journal[v.sealed:v.jlen] {
		if e.Src == x {
			sr.dsts, sr.lbls = append(sr.dsts, e.Dst), append(sr.lbls, e.Label)
		}
	}
	if len(sr.dsts) == 0 {
		return dsts, lbls
	}
	sr.dsts, sr.lbls = append(sr.dsts, dsts...), append(sr.lbls, lbls...)
	return sr.dsts, sr.lbls
}

// newSearcher builds a searcher for graphs on n vertices. The vertex
// universe is fixed for a DeltaGraph's life (inserts outside it are rejected,
// folds keep it), so a pooled evaluator's marks fit every epoch.
func newSearcher(n int) *searcher {
	sr := &searcher{}
	sr.ev = traversal.NewEvaluatorOver(n, sr.out)
	return sr
}

// search streams the vertices the union graph of v reaches from s along nfa
// to visit, on a pooled searcher. ctx is checked once per BFS level.
func (d *DeltaGraph) search(ctx context.Context, v *view, s graph.Vertex, nfa *automaton.NFA, visit func(graph.Vertex) bool) error {
	sr := d.searchers.Get().(*searcher)
	sr.v = v
	err := sr.ev.ReachableFromManyFunc(ctx, []graph.Vertex{s}, nfa, visit)
	sr.v = nil // a parked searcher must not keep a retired epoch alive
	d.searchers.Put(sr)
	return err
}

// EvalExpr answers an arbitrary path expression (any concatenation of plus
// segments, including constraints outside the index's class) over the
// current union graph, exactly, by the traversal kernel's forward search
// over the union successor source. It carries no index acceleration — the
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
	found := false
	err = d.search(ctx, v, s, nfa, func(y graph.Vertex) bool {
		found = y == t
		return found
	})
	return found, err
}
