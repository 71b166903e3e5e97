package dynamic

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// TestConcurrentAddQuery is the -race soak: readers query while a writer
// inserts, sealing segments and publishing views underneath them. Exactness
// is checked two ways — monotonicity during the run (an answer that was once
// true can never become false: the graph only grows), and full agreement
// with online traversal over the final union once the writer is done.
func TestConcurrentAddQuery(t *testing.T) {
	r := rand.New(rand.NewSource(701))
	const (
		n       = 120
		labels  = 2
		inserts = 400
		readers = 4
	)
	g := randomGraph(r, n, labels, 3*n)
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}

	// A fixed query pool every reader cycles through, tracking per-query
	// monotonicity.
	type poolQuery struct {
		s, t graph.Vertex
		l    labelseq.Seq
	}
	pool := make([]poolQuery, 64)
	constraints := []labelseq.Seq{{0}, {1}, {0, 1}, {1, 0}}
	for i := range pool {
		pool[i] = poolQuery{
			s: graph.Vertex(r.Intn(n)),
			t: graph.Vertex(r.Intn(n)),
			l: constraints[r.Intn(len(constraints))],
		}
	}

	edges := make([]graph.Edge, inserts)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:   graph.Vertex(r.Intn(n)),
			Dst:   graph.Vertex(r.Intn(n)),
			Label: graph.Label(r.Intn(labels)),
		}
	}

	// The writer waits for the readers' progress before each insert, so
	// queries interleave with the whole insert stream.
	var stop, failed atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			seenTrue := make([]bool, len(pool))
			rr := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := rr.Intn(len(pool))
				q := pool[i]
				got, err := d.Query(q.s, q.t, q.l)
				if err != nil {
					t.Errorf("concurrent query: %v", err)
					failed.Store(true)
					return
				}
				if seenTrue[i] && !got {
					t.Errorf("monotonicity violated: (%d,%d,%v+) was true, now false", q.s, q.t, q.l)
					failed.Store(true)
					return
				}
				if got {
					seenTrue[i] = true
				}
				reads.Add(1)
			}
		}(int64(800 + w))
	}

	for i, e := range edges {
		for reads.Load() < int64(i) && !failed.Load() {
			runtime.Gosched()
		}
		if err := d.AddEdge(e.Src, e.Label, e.Dst); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	// Final exactness: delta answers equal traversal over the final union.
	union := d.Graph()
	for _, q := range pool {
		want, err := traversal.EvalRLC(union, q.s, q.t, q.l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Query(q.s, q.t, q.l)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("final: delta(%d,%d,%v+) = %v, traversal = %v", q.s, q.t, q.l, got, want)
		}
	}
}

// TestEpochEquivalenceOracle inserts in rounds and, after every round,
// requires the delta answers to agree with an index rebuilt from scratch over
// the same union — the "delta == from-scratch" oracle a fold relies on: the
// next generation's base answers exactly what this one's overlay did.
func TestEpochEquivalenceOracle(t *testing.T) {
	r := rand.New(rand.NewSource(702))
	const n, labels = 12, 2
	g := randomGraph(r, n, labels, 18)
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}

	check := func(round int) {
		t.Helper()
		union := d.Graph()
		fresh, err := core.Build(union, core.Options{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range core.PrimitiveConstraints(labels, 2) {
			for s := graph.Vertex(0); int(s) < n; s++ {
				for tt := graph.Vertex(0); int(tt) < n; tt++ {
					got, err := d.Query(s, tt, l)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Query(s, tt, l)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("round %d (journal %d): delta(%d,%d,%v+) = %v, from-scratch rebuild = %v",
							round, d.JournalLen(), s, tt, l, got, want)
					}
				}
			}
		}
	}

	check(0)
	for round := 1; round <= 4; round++ {
		for i := 0; i < 5+r.Intn(6); i++ {
			if err := d.AddEdge(graph.Vertex(r.Intn(n)), graph.Label(r.Intn(labels)), graph.Vertex(r.Intn(n))); err != nil {
				t.Fatal(err)
			}
		}
		check(round)
	}
}

// TestEvalExprOverUnion checks the generic NFA evaluation (the serving
// path for constraints outside the index class while the journal is
// non-empty) against plain traversal over the materialized union.
func TestEvalExprOverUnion(t *testing.T) {
	r := rand.New(rand.NewSource(703))
	g := randomGraph(r, 30, 3, 90)
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := d.AddEdge(graph.Vertex(r.Intn(30)), graph.Label(r.Intn(3)), graph.Vertex(r.Intn(30))); err != nil {
			t.Fatal(err)
		}
	}
	union := d.Graph()
	exprs := []automaton.Expr{
		automaton.Plus(labelseq.Seq{0}),
		automaton.Plus(labelseq.Seq{0, 1, 2}), // beyond k=2: outside the index class
		automaton.Plus(labelseq.Seq{1, 1}),    // non-primitive single segment
		automaton.ConcatPlus(labelseq.Seq{0}, labelseq.Seq{1}),
		automaton.ConcatPlus(labelseq.Seq{0, 1}, labelseq.Seq{2}),
	}
	ev := traversal.NewEvaluator(union)
	for i := 0; i < 400; i++ {
		s := graph.Vertex(r.Intn(30))
		tt := graph.Vertex(r.Intn(30))
		e := exprs[r.Intn(len(exprs))]
		got, err := d.EvalExpr(s, tt, e)
		if err != nil {
			t.Fatal(err)
		}
		nfa, err := automaton.Compile(e, union.NumLabels())
		if err != nil {
			t.Fatal(err)
		}
		if want := ev.BFS(s, tt, nfa); got != want {
			t.Fatalf("EvalExpr(%d,%d,%v) = %v, union BFS = %v", s, tt, e, got, want)
		}
	}
	if _, err := d.EvalExpr(-1, 0, exprs[0]); err == nil {
		t.Error("out-of-range source must fail")
	}
}

// TestAddEdgesBatchAtomic: an invalid edge anywhere in the batch rejects the
// whole batch, and a valid batch becomes visible in one publish.
func TestAddEdgesBatchAtomic(t *testing.T) {
	g := graph.FromEdges(4, 2, []graph.Edge{{Src: 0, Dst: 1, Label: 0}})
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = d.AddEdges([]graph.Edge{
		{Src: 1, Dst: 2, Label: 1},
		{Src: 2, Dst: 9, Label: 0}, // out of range
	})
	if err == nil {
		t.Fatal("batch with an invalid edge must fail")
	}
	if d.JournalLen() != 0 {
		t.Fatalf("failed batch left %d journal edges", d.JournalLen())
	}
	if err := d.AddEdges([]graph.Edge{{Src: 1, Dst: 2, Label: 1}, {Src: 2, Dst: 3, Label: 0}}); err != nil {
		t.Fatal(err)
	}
	if d.JournalLen() != 2 {
		t.Fatalf("journal = %d, want 2", d.JournalLen())
	}
	ok, err := d.Query(0, 2, labelseq.Seq{0, 1})
	if err != nil || !ok {
		t.Fatalf("query through batch edges = %v, %v; want true", ok, err)
	}
}

// TestNewWithJournal: seeding a fresh DeltaGraph with carried-over edges is
// equivalent to inserting them, and invalid seeds are rejected.
func TestNewWithJournal(t *testing.T) {
	g := graph.FromEdges(4, 2, []graph.Edge{{Src: 0, Dst: 1, Label: 0}})
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewWithJournal(g, ix, []graph.Edge{{Src: 1, Dst: 2, Label: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.JournalLen() != 1 {
		t.Fatalf("journal = %d, want 1", d.JournalLen())
	}
	ok, err := d.Query(0, 2, labelseq.Seq{0, 1})
	if err != nil || !ok {
		t.Fatalf("seeded query = %v, %v; want true", ok, err)
	}
	if _, err := NewWithJournal(g, ix, []graph.Edge{{Src: 0, Dst: 7, Label: 0}}); err == nil {
		t.Error("invalid seeded edge must fail")
	}
}

// TestSealBoundary drives the journal across several segment seals and
// verifies answers keep agreeing with traversal at every size — the sealed
// adjacency and the unsealed tail must compose seamlessly.
func TestSealBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(704))
	const n = 40
	g := randomGraph(r, n, 2, 60)
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := labelseq.Seq{0, 1}
	for i := 0; i < 3*segmentSize+5; i++ {
		if err := d.AddEdge(graph.Vertex(r.Intn(n)), graph.Label(r.Intn(2)), graph.Vertex(r.Intn(n))); err != nil {
			t.Fatal(err)
		}
		if i%7 != 0 {
			continue
		}
		union := d.Graph()
		for j := 0; j < 10; j++ {
			s := graph.Vertex(r.Intn(n))
			tt := graph.Vertex(r.Intn(n))
			want, err := traversal.EvalRLC(union, s, tt, l)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Query(s, tt, l)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("journal %d: delta(%d,%d,%v+) = %v, traversal = %v", d.JournalLen(), s, tt, l, got, want)
			}
		}
	}
}

// TestOverlayQueryCancelled: a cancelled context makes both overlay entry
// points return the context's error instead of searching. The fast path
// returns before ever looking at the context, so the query must be one the
// base index misses: 2 has no in-edges.
func TestOverlayQueryCancelled(t *testing.T) {
	g := graph.FromEdges(4, 2, []graph.Edge{{Src: 0, Dst: 1, Label: 0}})
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(1, 1, 3); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.QueryRLC(ctx, 0, 2, labelseq.Seq{0, 1}); err != context.Canceled {
		t.Errorf("QueryRLC under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := d.EvalExprCtx(ctx, 0, 2, automaton.ConcatPlus(labelseq.Seq{0}, labelseq.Seq{1})); err != context.Canceled {
		t.Errorf("EvalExprCtx under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if ok, err := d.QueryRLC(context.Background(), 0, 3, labelseq.Seq{0, 1}); err != nil || !ok {
		t.Errorf("QueryRLC(0, 3, (l0 l1)+) under a live ctx = %v, %v; want true", ok, err)
	}
}
