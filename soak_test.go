package rlc_test

import (
	"math/rand"
	"testing"

	rlc "github.com/g-rpqs/rlc-go"
	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// TestSoakIndexVsBiBFS samples thousands of queries on a mid-size skewed
// graph and requires exact agreement between the index and BiBFS — the
// scale tier above the exhaustive small-graph tests.
func TestSoakIndexVsBiBFS(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	g, err := rlc.GenerateBA(3000, 4, 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	constraints := []rlc.Seq{{0}, {1}, {2}, {0, 1}, {1, 0}, {2, 3}, {0, 5}}
	for i := 0; i < 4000; i++ {
		s := rlc.Vertex(r.Intn(g.NumVertices()))
		tt := rlc.Vertex(r.Intn(g.NumVertices()))
		l := constraints[r.Intn(len(constraints))]
		got, err := ix.Query(s, tt, l)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rlc.EvalBiBFS(g, s, tt, l)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: index(%d,%d,%v+) = %v, BiBFS = %v", i, s, tt, l, got, want)
		}
	}
}

// TestSoakDeltaGraph streams insertions into a mid-size graph, sampling
// queries after every batch and comparing against traversal on the union.
func TestSoakDeltaGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	g, err := rlc.GenerateER(500, 1500, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rlc.BuildDeltaGraph(g, rlc.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(18))
	constraints := []rlc.Seq{{0}, {1}, {0, 1}, {2, 0}}
	for batch := 0; batch < 10; batch++ {
		for i := 0; i < 10; i++ {
			if err := d.AddEdge(rlc.Vertex(r.Intn(500)), rlc.Label(r.Intn(4)), rlc.Vertex(r.Intn(500))); err != nil {
				t.Fatal(err)
			}
		}
		union := d.Graph()
		for i := 0; i < 60; i++ {
			s := rlc.Vertex(r.Intn(500))
			tt := rlc.Vertex(r.Intn(500))
			l := constraints[r.Intn(len(constraints))]
			got, err := d.Query(s, tt, l)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rlc.EvalBFS(union, s, tt, l)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("batch %d: delta(%d,%d,%v+) = %v, union BFS = %v (journal %d)",
					batch, s, tt, l, got, want, d.JournalLen())
			}
		}
	}
}

// TestSoakHybridVsTraversal samples extended two-segment queries on a
// mid-size graph.
func TestSoakHybridVsTraversal(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	g, err := rlc.GenerateBA(1500, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := rlc.NewHybridEvaluator(ix)
	exprs := []rlc.Expr{
		rlc.ConcatPlusExpr(rlc.Seq{0}, rlc.Seq{1}),
		rlc.ConcatPlusExpr(rlc.Seq{1}, rlc.Seq{0}),
		rlc.ConcatPlusExpr(rlc.Seq{0, 1}, rlc.Seq{2}),
	}
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 600; i++ {
		s := rlc.Vertex(r.Intn(g.NumVertices()))
		tt := rlc.Vertex(r.Intn(g.NumVertices()))
		e := exprs[r.Intn(len(exprs))]
		got, err := h.Eval(s, tt, e)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: plain product BFS over the compiled expression — no
		// index involvement at all.
		nfa, err := automaton.Compile(e, g.NumLabels())
		if err != nil {
			t.Fatal(err)
		}
		want := traversal.NewEvaluator(g).BFS(s, tt, nfa)
		if got != want {
			t.Fatalf("query %d: hybrid(%d,%d,%v) = %v, oracle = %v", i, s, tt, e, got, want)
		}
	}
}
