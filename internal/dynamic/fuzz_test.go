package dynamic

import (
	"context"
	"errors"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

const (
	fuzzVertices = 8
	fuzzLabels   = 3
	fuzzK        = 2
)

// fuzzEdges decodes bytes into edges, three bytes (src, label, dst) each.
func fuzzEdges(b []byte) []graph.Edge {
	var es []graph.Edge
	for ; len(b) >= 3; b = b[3:] {
		es = append(es, graph.Edge{
			Src:   graph.Vertex(b[0] % fuzzVertices),
			Label: graph.Label(b[1] % fuzzLabels),
			Dst:   graph.Vertex(b[2] % fuzzVertices),
		})
	}
	return es
}

// fuzzExpr decodes bytes into a plus-segment expression: each byte is one
// label, and a set high bit starts a new segment. At most three segments of
// at most four labels — past k, so the index class is exceeded too.
func fuzzExpr(b []byte) automaton.Expr {
	var segs []labelseq.Seq
	for _, c := range b {
		if len(segs) == 0 || (c&0x80 != 0 && len(segs) < 3) {
			segs = append(segs, nil)
		}
		if last := &segs[len(segs)-1]; len(*last) < 4 {
			*last = append(*last, labelseq.Label(c%fuzzLabels))
		}
	}
	return automaton.ConcatPlus(segs...)
}

// forceSeal seals the journal tail whatever its length, publishing a
// successor view exactly as appendEdges does when a segment fills, so a
// test can place sealed cuts anywhere in the journal.
func forceSeal(d *DeltaGraph) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nv := *d.cur.Load()
	nv.seal()
	d.cur.Store(&nv)
}

// FuzzUnionSearch is the differential fuzzer of the overlay's search: a
// random base graph, a random journal split across two sealed segments and
// an unsealed tail, and a random single- or multi-segment expression. For
// every vertex pair (so s == t and self-loops are always in play) the
// overlay's EvalExpr — and QueryRLC, when the expression is one segment —
// must equal the reference BFS on the materialised FoldInput() graph.
func FuzzUnionSearch(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 3}, []byte{1, 1, 3}, uint8(0), uint8(0), []byte{0, 1})
	f.Add([]byte{0, 0, 0}, []byte{0, 0, 1, 1, 0, 0}, uint8(1), uint8(0), []byte{0})                  // self-loop, s == t through the journal
	f.Add([]byte{0, 0, 1}, []byte{1, 1, 2, 2, 2, 3, 3, 0, 4}, uint8(1), uint8(1), []byte{0, 1, 2})   // |L| = 3 > k
	f.Add([]byte{0, 0, 1, 1, 0, 2}, []byte{2, 1, 3, 3, 1, 4}, uint8(0), uint8(1), []byte{0, 0x81})   // a+ ∘ b+
	f.Add([]byte{}, []byte{0, 0, 1, 1, 1, 0, 0, 2, 0}, uint8(2), uint8(0), []byte{0, 1, 0x82, 0x80}) // empty base, three segments
	f.Add([]byte{3, 1, 3}, []byte{3, 1, 4, 4, 1, 3}, uint8(0), uint8(2), []byte{1, 1})               // non-primitive (b b)+
	f.Fuzz(func(t *testing.T, base, journal []byte, cutA, cutB uint8, exprBytes []byte) {
		e := fuzzExpr(exprBytes)
		if len(e.Segments) == 0 {
			return
		}
		g := graph.FromEdges(fuzzVertices, fuzzLabels, fuzzEdges(base))
		d, err := Build(g, core.Options{K: fuzzK})
		if err != nil {
			t.Fatal(err)
		}
		// journal[:a] and journal[a:b] become sealed segments, journal[b:]
		// stays in the unsealed tail (until segmentSize seals it naturally).
		edges := fuzzEdges(journal)
		a := int(cutA) % (len(edges) + 1)
		b := a + int(cutB)%(len(edges)-a+1)
		for _, part := range [][]graph.Edge{edges[:a], edges[a:b]} {
			if err := d.AddEdges(part); err != nil {
				t.Fatal(err)
			}
			forceSeal(d)
		}
		for _, je := range edges[b:] {
			if err := d.AddEdge(je.Src, je.Label, je.Dst); err != nil {
				t.Fatal(err)
			}
		}

		union, folded := d.FoldInput()
		if folded != len(edges) {
			t.Fatalf("FoldInput folded %d of %d journal edges", folded, len(edges))
		}
		nfa, err := automaton.Compile(e, fuzzLabels)
		if err != nil {
			t.Fatal(err)
		}
		oracle := traversal.NewEvaluator(union)
		for s := graph.Vertex(0); s < fuzzVertices; s++ {
			for tt := graph.Vertex(0); tt < fuzzVertices; tt++ {
				want := oracle.BFS(s, tt, nfa)
				got, err := d.EvalExpr(s, tt, e)
				if err != nil {
					t.Fatalf("EvalExpr(%d, %d, %v): %v", s, tt, e, err)
				}
				if got != want {
					t.Fatalf("EvalExpr(%d, %d, %v) = %v, BFS on the folded graph = %v (journal cuts %d/%d of %d)", s, tt, e, got, want, a, b, len(edges))
				}
				if len(e.Segments) != 1 {
					continue
				}
				l := e.Segments[0].Labels
				got, err = d.QueryRLC(context.Background(), s, tt, l)
				switch {
				case err == nil:
					if got != want {
						t.Fatalf("QueryRLC(%d, %d, %v+) = %v, BFS on the folded graph = %v (journal cuts %d/%d of %d)", s, tt, l, got, want, a, b, len(edges))
					}
				case len(l) > fuzzK && errors.Is(err, core.ErrConstraintTooLong):
				case !labelseq.IsPrimitive(l) && errors.Is(err, core.ErrNotMinimumRepeat):
				default:
					t.Fatalf("QueryRLC(%d, %d, %v+): unexpected error %v", s, tt, l, err)
				}
			}
		}
	})
}
