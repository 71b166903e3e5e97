package rlc_test

import (
	"fmt"
	"os"
	"path/filepath"

	rlc "github.com/g-rpqs/rlc-go"
)

// Building an index and answering an RLC query.
func ExampleBuildIndex() {
	b := rlc.NewGraphBuilder(0, 0)
	b.AddEdge(0, 0, 1) // 0 -l0-> 1
	b.AddEdge(1, 1, 2) // 1 -l1-> 2
	b.AddEdge(2, 0, 3) // 2 -l0-> 3
	b.AddEdge(3, 1, 4) // 3 -l1-> 4
	g := b.Build()

	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		panic(err)
	}
	ok, _ := ix.Query(0, 4, rlc.Seq{0, 1})
	fmt.Println(ok)
	// Output: true
}

// Replaying the paper's Example 1 on the Figure 1 network.
func ExampleIndex_Query() {
	g := rlc.ExampleFig1()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 3})
	if err != nil {
		panic(err)
	}
	a14, _ := g.VertexByName("A14")
	a19, _ := g.VertexByName("A19")
	debits, _ := g.LabelByName("debits")
	credits, _ := g.LabelByName("credits")

	ok, _ := ix.Query(a14, a19, rlc.Seq{debits, credits})
	fmt.Println("Q1(A14, A19, (debits credits)+) =", ok)
	// Output: Q1(A14, A19, (debits credits)+) = true
}

// Kleene-star queries reduce to plus after the s == t check.
func ExampleIndex_QueryStar() {
	g := rlc.ExampleFig2()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		panic(err)
	}
	v6, _ := g.VertexByName("v6")
	ok, _ := ix.QueryStar(v6, v6, rlc.Seq{0}) // empty path accepted
	fmt.Println(ok)
	// Output: true
}

// Parsing constraints from text against a graph's label names.
func ExampleParseExpr() {
	g := rlc.ExampleFig1()
	e, err := rlc.ParseExpr("(knows worksFor)+", g)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(e.Segments), e.Segments[0].Plus)
	// Output: 1 true
}

// Answering many queries concurrently through the batch worker pool.
// Results come back in request order, one per query; per-query validation
// errors never fail the whole batch.
func ExampleIndex_QueryBatch() {
	g := rlc.ExampleFig2()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		panic(err)
	}
	queries := []rlc.BatchQuery{
		{S: 0, T: 4, L: rlc.Seq{0, 1}}, // (v1, v5, (l1 l2)+)
		{S: 2, T: 5, L: rlc.Seq{0}},    // (v3, v6, (l1)+)
		{S: 1, T: 0, L: rlc.Seq{1}},    // (v2, v1, (l2)+)
	}
	for i, res := range ix.QueryBatch(queries, 2 /* workers; 0 = GOMAXPROCS */) {
		if res.Err != nil {
			panic(res.Err)
		}
		fmt.Printf("query %d: %v\n", i, res.Reachable)
	}
	// Output:
	// query 0: true
	// query 1: true
	// query 2: false
}

// Extended queries (the Q4 shape) evaluate through the hybrid.
func ExampleNewHybridEvaluator() {
	g := rlc.ExampleFig1()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		panic(err)
	}
	h := rlc.NewHybridEvaluator(ix)

	knows, _ := g.LabelByName("knows")
	holds, _ := g.LabelByName("holds")
	p10, _ := g.VertexByName("P10")
	a14, _ := g.VertexByName("A14")
	ok, _ := h.Eval(p10, a14, rlc.ConcatPlusExpr(rlc.Seq{knows}, rlc.Seq{holds}))
	fmt.Println("knows+ holds+ from P10 to A14 =", ok)
	// Output: knows+ holds+ from P10 to A14 = true
}

// The minimum-repeat algebra at the heart of the index.
func ExampleMinimumRepeat() {
	fmt.Println(rlc.MinimumRepeat(rlc.Seq{0, 1, 0, 1}))
	fmt.Println(rlc.IsMinimumRepeat(rlc.Seq{0, 1}), rlc.IsMinimumRepeat(rlc.Seq{0, 0}))
	// Output:
	// (l0,l1)
	// true false
}

// Insert-only dynamic updates with exact answers.
func ExampleDeltaGraph() {
	g := rlc.GraphFromEdges(3, 2, []rlc.Edge{{Src: 0, Dst: 1, Label: 0}})
	d, err := rlc.BuildDeltaGraph(g, rlc.Options{K: 2})
	if err != nil {
		panic(err)
	}
	before, _ := d.Query(0, 2, rlc.Seq{0, 1})
	if err := d.AddEdge(1, 1, 2); err != nil {
		panic(err)
	}
	after, _ := d.Query(0, 2, rlc.Seq{0, 1})
	fmt.Println(before, after)
	// Output: false true
}

// Snapshot bundles: freeze a built index (with its graph) into one
// self-contained file, reopen it zero-copy, and query — the production
// startup path of rlcserve -snapshot.
func ExampleOpenSnapshot() {
	g := rlc.ExampleFig2()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		panic(err)
	}
	path := filepath.Join(os.TempDir(), "fig2_example.rlcs")
	if err := rlc.SaveSnapshotFile(path, ix); err != nil {
		panic(err)
	}
	defer os.Remove(path)

	snap, err := rlc.OpenSnapshot(path)
	if err != nil {
		panic(err)
	}
	defer snap.Close()
	if err := snap.Verify(); err != nil { // full checksum + fingerprint pass
		panic(err)
	}
	v3, _ := snap.Graph().VertexByName("v3")
	v6, _ := snap.Graph().VertexByName("v6")
	ok, _ := snap.Index().Query(v3, v6, rlc.Seq{1, 0})
	fmt.Println("self-contained:", snap.Fingerprint().M == g.NumEdges(), "answer:", ok)
	// Output: self-contained: true answer: true
}
