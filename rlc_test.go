package rlc_test

import (
	"bytes"
	"path/filepath"
	"testing"

	rlc "github.com/g-rpqs/rlc-go"
)

// TestQuickstart walks the README's quick-start path through the public
// facade.
func TestQuickstart(t *testing.T) {
	b := rlc.NewGraphBuilder(0, 0)
	b.AddEdge(0, 0, 1)
	b.AddEdge(1, 1, 2)
	b.AddEdge(2, 0, 3)
	b.AddEdge(3, 1, 4)
	g := b.Build()

	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ix.Query(0, 4, rlc.Seq{0, 1})
	if err != nil || !ok {
		t.Fatalf("(0, 4, (l0 l1)+) = %v, %v; want true", ok, err)
	}
	ok, err = ix.Query(0, 3, rlc.Seq{0, 1})
	if err != nil || ok {
		t.Fatalf("(0, 3, (l0 l1)+) = %v, %v; want false", ok, err)
	}
}

// TestFacadeQueryBatch exercises the batch-query path documented in the
// package's "Batch queries" section through the public facade.
func TestFacadeQueryBatch(t *testing.T) {
	g := rlc.ExampleFig2()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	var queries []rlc.BatchQuery
	var want []bool
	for s := rlc.Vertex(0); int(s) < g.NumVertices(); s++ {
		for tt := rlc.Vertex(0); int(tt) < g.NumVertices(); tt++ {
			for _, l := range []rlc.Seq{{0}, {1}, {2}, {1, 0}} {
				queries = append(queries, rlc.BatchQuery{S: s, T: tt, L: l})
				ok, err := ix.Query(s, tt, l)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, ok)
			}
		}
	}
	results := ix.QueryBatch(queries, 0)
	var buf []rlc.BatchResult
	buf = ix.QueryBatchInto(queries, 2, buf)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		if res.Reachable != want[i] || buf[i].Reachable != want[i] {
			t.Fatalf("query %d (%d,%d,%v): batch=%v into=%v want=%v",
				i, queries[i].S, queries[i].T, queries[i].L, res.Reachable, buf[i].Reachable, want[i])
		}
	}
}

func TestFacadeFig1Queries(t *testing.T) {
	g := rlc.ExampleFig1()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	a14, _ := g.VertexByName("A14")
	a19, _ := g.VertexByName("A19")
	debits, _ := g.LabelByName("debits")
	credits, _ := g.LabelByName("credits")

	ok, err := ix.Query(a14, a19, rlc.Seq{debits, credits})
	if err != nil || !ok {
		t.Fatalf("Q1(A14, A19, (debits credits)+) = %v, %v; want true", ok, err)
	}

	p10, _ := g.VertexByName("P10")
	p13, _ := g.VertexByName("P13")
	knows, _ := g.LabelByName("knows")
	worksFor, _ := g.LabelByName("worksFor")
	ok, err = ix.Query(p10, p13, rlc.Seq{knows, knows, worksFor})
	if err != nil || ok {
		t.Fatalf("Q2(P10, P13, (knows knows worksFor)+) = %v, %v; want false", ok, err)
	}
}

func TestFacadeBaselinesAgree(t *testing.T) {
	g := rlc.ExampleFig2()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	closure, err := rlc.BuildETC(g, rlc.ETCOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := rlc.Seq{1, 0}
	for s := rlc.Vertex(0); int(s) < g.NumVertices(); s++ {
		for tt := rlc.Vertex(0); int(tt) < g.NumVertices(); tt++ {
			want, err := rlc.EvalBFS(g, s, tt, l)
			if err != nil {
				t.Fatal(err)
			}
			bi, _ := rlc.EvalBiBFS(g, s, tt, l)
			qi, _ := ix.Query(s, tt, l)
			qe, _ := closure.Query(s, tt, l)
			if bi != want || qi != want || qe != want {
				t.Fatalf("(%d,%d): bfs=%v bibfs=%v index=%v etc=%v", s, tt, want, bi, qi, qe)
			}
		}
	}
}

func TestFacadeParseExpr(t *testing.T) {
	g := rlc.ExampleFig1()
	e, err := rlc.ParseExpr("(debits credits)+", g)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Segments) != 1 || !e.Segments[0].Plus || len(e.Segments[0].Labels) != 2 {
		t.Fatalf("parsed expression wrong: %+v", e)
	}
	if _, err := rlc.ParseExpr("(nope)+", g); err == nil {
		t.Error("unknown label must fail")
	}
	// Numeric fallback works on named graphs too.
	if _, err := rlc.ParseExpr("l0+", g); err != nil {
		t.Errorf("numeric fallback failed: %v", err)
	}
	if _, err := rlc.ParseExpr("l99+", g); err == nil {
		t.Error("out-of-range numeric label must fail")
	}
}

func TestFacadeHybrid(t *testing.T) {
	g := rlc.ExampleFig1()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := rlc.NewHybridEvaluator(ix)
	knows, _ := g.LabelByName("knows")
	holds, _ := g.LabelByName("holds")
	p10, _ := g.VertexByName("P10")
	a14, _ := g.VertexByName("A14")
	// knows+ holds+: P10 knows P11 holds A14.
	ok, err := h.Eval(p10, a14, rlc.ConcatPlusExpr(rlc.Seq{knows}, rlc.Seq{holds}))
	if err != nil || !ok {
		t.Fatalf("knows+ holds+ P10->A14 = %v, %v; want true", ok, err)
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := rlc.ExampleFig2()
	var buf bytes.Buffer
	if err := rlc.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := rlc.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("round trip: %d edges, want %d", back.NumEdges(), g.NumEdges())
	}
}

// TestFacadeIndexIO walks the index's only I/O: build, save a bundle, open
// it verified.
func TestFacadeIndexIO(t *testing.T) {
	ix, err := rlc.BuildIndex(rlc.ExampleFig2(), rlc.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	bundle := filepath.Join(t.TempDir(), "fig2.rlcs")
	if err := rlc.SaveSnapshotFile(bundle, ix); err != nil {
		t.Fatal(err)
	}
	snap, err := rlc.OpenVerifiedSnapshot(bundle)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Index().NumEntries() != ix.NumEntries() {
		t.Error("the bundle round trip changed the entry count")
	}
}

func TestFacadeGeneratorsAndWorkload(t *testing.T) {
	g, err := rlc.GenerateBA(200, 3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := rlc.ComputeGraphStats(g)
	if st.Vertices != 200 || st.Labels != 4 {
		t.Fatalf("stats: %+v", st)
	}
	w, err := rlc.GenerateWorkload(g, rlc.WorkloadOptions{NumTrue: 5, NumFalse: 5, ConcatLen: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := rlc.BuildIndex(g, rlc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.All() {
		got, err := ix.Query(q.S, q.T, q.L)
		if err != nil {
			t.Fatal(err)
		}
		if got != q.Expected {
			t.Fatalf("index disagrees with workload ground truth on %+v", q)
		}
	}
	er, err := rlc.GenerateER(100, 300, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if er.NumEdges() != 300 {
		t.Errorf("ER edges = %d", er.NumEdges())
	}
}

func TestFacadeDeltaGraph(t *testing.T) {
	g := rlc.ExampleFig2()
	d, err := rlc.BuildDeltaGraph(g, rlc.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// v6 has no out-edges in Figure 2; adding v6 -l1-> v1 creates new
	// reachability the static index lacks.
	ok, err := d.Query(5, 0, rlc.Seq{0})
	if err != nil || ok {
		t.Fatalf("pre-insert (v6, v1, l1+) = %v, %v; want false", ok, err)
	}
	if err := d.AddEdge(5, 0, 0); err != nil {
		t.Fatal(err)
	}
	ok, err = d.Query(5, 0, rlc.Seq{0})
	if err != nil || !ok {
		t.Fatalf("post-insert (v6, v1, l1+) = %v, %v; want true", ok, err)
	}
	if err := d.RemoveEdge(5, 0, 0); err == nil {
		t.Error("deletions must be rejected")
	}
}

func TestFacadeDFS(t *testing.T) {
	g := rlc.ExampleFig2()
	ok, err := rlc.EvalDFS(g, 2, 5, rlc.Seq{1, 0}) // v3 -> v6 under (l2 l1)+
	if err != nil || !ok {
		t.Errorf("EvalDFS = %v, %v; want true", ok, err)
	}
}

func TestFacadeMRHelpers(t *testing.T) {
	if !rlc.IsMinimumRepeat(rlc.Seq{0, 1}) {
		t.Error("(0,1) is primitive")
	}
	if rlc.IsMinimumRepeat(rlc.Seq{0, 0}) {
		t.Error("(0,0) is not primitive")
	}
	if got := rlc.MinimumRepeat(rlc.Seq{0, 1, 0, 1}); len(got) != 2 {
		t.Errorf("MR = %v", got)
	}
}
