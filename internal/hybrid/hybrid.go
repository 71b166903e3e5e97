package hybrid

import (
	"context"
	"fmt"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// Evaluator answers plus-segment path expressions over one graph using its
// RLC index. Not safe for concurrent use.
type Evaluator struct {
	ix *core.Index
	ev *traversal.Evaluator
	// probeEv answers a final segment outside the index's class, one
	// traversal per vertex ev discovers — from inside ev's visit hook, so it
	// cannot be ev itself. Built on first need, then reused.
	probeEv   *traversal.Evaluator
	labelFreq []int64 // lazily counted out-edge labels, for direction choice
}

// New returns a hybrid evaluator over the index's graph.
func New(ix *core.Index) *Evaluator {
	return &Evaluator{ix: ix, ev: traversal.NewEvaluator(ix.Graph())}
}

// Eval answers (s, t, e). Every segment must carry the Kleene plus — the
// query class of Section VI-C. Single-segment expressions that the index
// supports directly become one lookup; multi-segment expressions traverse
// the leading segments online and answer the final segment from the index.
func (h *Evaluator) Eval(s, t graph.Vertex, e automaton.Expr) (bool, error) {
	return h.EvalCtx(context.Background(), s, t, e)
}

// QueryRLC answers the single-constraint query (s, t, l+), satisfying the
// facade's Querier interface: the index answers when l is in its class, an
// NFA-guided traversal otherwise.
func (h *Evaluator) QueryRLC(ctx context.Context, s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	return h.EvalCtx(ctx, s, t, automaton.Plus(l))
}

// EvalCtx is Eval under a context. Cancellation is observed before each
// leading segment's closure and once per BFS level of the streamed segment
// expansion, so a cancelled multi-segment query stops within one level.
func (h *Evaluator) EvalCtx(ctx context.Context, s, t graph.Vertex, e automaton.Expr) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if len(e.Segments) == 0 {
		return false, fmt.Errorf("hybrid: empty expression")
	}
	for _, seg := range e.Segments {
		if !seg.Plus {
			return false, fmt.Errorf("hybrid: segment %v lacks the Kleene plus; only plus-segment expressions are supported", seg.Labels)
		}
		if len(seg.Labels) == 0 {
			return false, fmt.Errorf("hybrid: empty segment")
		}
	}

	if len(e.Segments) == 1 {
		return h.answerSegment(s, t, e.Segments[0].Labels)
	}

	// Two-segment expressions (the Q4 shape) choose the cheaper direction:
	// expand the segment touching fewer edges online and answer the other
	// with one probe per discovered vertex.
	if len(e.Segments) == 2 && h.segmentCost(e.Segments[1].Labels) < h.segmentCost(e.Segments[0].Labels) {
		if ok, handled, err := h.evalBackward(ctx, s, t, e.Segments[0].Labels, e.Segments[1].Labels); handled {
			return ok, err
		}
	}

	// Expand all but the last two segments online into full closures.
	frontier := []graph.Vertex{s}
	for _, seg := range e.Segments[:len(e.Segments)-2] {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		nfa, err := automaton.NewPlus(seg.Labels, h.ix.Graph().NumLabels())
		if err != nil {
			return false, fmt.Errorf("hybrid: %w", err)
		}
		frontier = h.ev.ReachableFromMany(frontier, nfa)
		if len(frontier) == 0 {
			return false, nil
		}
	}

	// Penultimate segment: expand online, probing each discovered vertex
	// against the precomputed target side of the final segment and exiting
	// on the first hit — the "continuously check intermediately visited
	// vertices" strategy of Section VI-C.
	last := e.Segments[len(e.Segments)-1].Labels
	penult := e.Segments[len(e.Segments)-2].Labels
	nfa, err := automaton.NewPlus(penult, h.ix.Graph().NumLabels())
	if err != nil {
		return false, fmt.Errorf("hybrid: %w", err)
	}
	reaches, err := h.probeFor(t, last)
	if err != nil {
		return false, err
	}
	found := false
	err = h.ev.ReachableFromManyFunc(ctx, frontier, nfa, func(x graph.Vertex) bool {
		found = reaches(x)
		return found
	})
	return found, err
}

// segmentCost estimates the edges an online expansion of seg+ touches: the
// total frequency of the segment's labels. Label frequencies are counted
// once per evaluator.
func (h *Evaluator) segmentCost(seg labelseq.Seq) int64 {
	if h.labelFreq == nil {
		g := h.ix.Graph()
		h.labelFreq = make([]int64, g.NumLabels())
		for v := graph.Vertex(0); int(v) < g.NumVertices(); v++ {
			_, lbls := g.OutEdges(v)
			for _, l := range lbls {
				h.labelFreq[l]++
			}
		}
	}
	var cost int64
	for _, l := range seg {
		if int(l) < len(h.labelFreq) {
			cost += h.labelFreq[l]
		}
	}
	return cost
}

// evalBackward answers (s, t, first+ ∘ last+) by expanding last+ backward
// from t and probing each discovered vertex x for Query(s, x, first+).
// handled is false when the first segment is outside the index's class, in
// which case the caller falls back to the forward strategy.
func (h *Evaluator) evalBackward(ctx context.Context, s, t graph.Vertex, first, last labelseq.Seq) (ok, handled bool, err error) {
	if len(first) > h.ix.K() || !labelseq.IsPrimitive(first) {
		return false, false, nil
	}
	probe, perr := h.ix.NewSourceProbe(s, first)
	if perr != nil {
		return false, true, fmt.Errorf("hybrid: %w", perr)
	}
	nfa, nerr := automaton.NewPlus(last, h.ix.Graph().NumLabels())
	if nerr != nil {
		return false, true, fmt.Errorf("hybrid: %w", nerr)
	}
	found := false
	err = h.ev.ReachableIntoManyFunc(ctx, []graph.Vertex{t}, nfa, func(x graph.Vertex) bool {
		found = probe.Reaches(x)
		return found
	})
	return found, true, err
}

// probeFor prepares the per-source test for (·, t, l+): an index TargetProbe
// when the constraint is within the index's class, otherwise a traversal on
// the second evaluator.
func (h *Evaluator) probeFor(t graph.Vertex, l labelseq.Seq) (func(graph.Vertex) bool, error) {
	if len(l) <= h.ix.K() && labelseq.IsPrimitive(l) {
		probe, err := h.ix.NewTargetProbe(t, l)
		if err != nil {
			return nil, fmt.Errorf("hybrid: %w", err)
		}
		return probe.Reaches, nil
	}
	nfa, err := automaton.NewPlus(l, h.ix.Graph().NumLabels())
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	if h.probeEv == nil {
		h.probeEv = traversal.NewEvaluator(h.ix.Graph())
	}
	return func(x graph.Vertex) bool { return h.probeEv.BiBFS(x, t, nfa) }, nil
}

// answerSegment evaluates (x, t, l+) through the index when the constraint
// is within the index's supported class, falling back to online traversal
// otherwise (e.g. l longer than the index's k).
func (h *Evaluator) answerSegment(x, t graph.Vertex, l labelseq.Seq) (bool, error) {
	if len(l) <= h.ix.K() && labelseq.IsPrimitive(l) {
		return h.ix.Query(x, t, l)
	}
	nfa, err := automaton.NewPlus(l, h.ix.Graph().NumLabels())
	if err != nil {
		return false, fmt.Errorf("hybrid: %w", err)
	}
	return h.ev.BiBFS(x, t, nfa), nil
}
