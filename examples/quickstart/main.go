// Quickstart: build an RLC index over the paper's running-example graph
// (Figure 2) and replay the queries of Example 4.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	rlc "github.com/g-rpqs/rlc-go"
)

func main() {
	// The graph of Figure 2: six vertices, eleven edges, labels l1-l3.
	g := rlc.ExampleFig2()
	fmt.Printf("graph: %d vertices, %d edges, %d labels\n", g.NumVertices(), g.NumEdges(), g.NumLabels())

	// Build the index with recursive k = 2: it can answer any constraint
	// (l1 ... lj)+ with j <= 2.
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("index: %d entries, %d distinct minimum repeats, %d bytes\n\n", st.Entries, st.DistinctMRs, st.SizeBytes)

	v := func(name string) rlc.Vertex {
		id, ok := g.VertexByName(name)
		if !ok {
			log.Fatalf("no vertex %s", name)
		}
		return id
	}
	const (
		l1 = rlc.Label(0)
		l2 = rlc.Label(1)
	)

	// The three queries of Example 4.
	queries := []struct {
		name string
		s, t rlc.Vertex
		l    rlc.Seq
	}{
		{"Q1(v3, v6, (l2 l1)+)", v("v3"), v("v6"), rlc.Seq{l2, l1}},
		{"Q2(v1, v2, (l2 l1)+)", v("v1"), v("v2"), rlc.Seq{l2, l1}},
		{"Q3(v1, v3, (l1)+)", v("v1"), v("v3"), rlc.Seq{l1}},
	}
	for _, q := range queries {
		ans, err := ix.Query(q.s, q.t, q.l)
		if err != nil {
			log.Fatal(err)
		}
		// Cross-check against the online-traversal baseline.
		bfs, err := rlc.EvalBFS(g, q.s, q.t, q.l)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s = %-5v (BFS agrees: %v)\n", q.name, ans, bfs == ans)
	}

	// Peek inside the index: the Lout set of v3 (cf. Table II).
	fmt.Printf("\nLout(v3):\n")
	for _, e := range ix.LoutEntries(v("v3")) {
		fmt.Printf("  (%s, %s)\n", g.VertexName(e.Hub), e.MR.Format(g.LabelNames()))
	}

	// Batch queries: the same three queries answered in one QueryBatch
	// call. The index is immutable, so the batch fans out over a worker
	// pool (0 = GOMAXPROCS) and the results come back in request order.
	batch := make([]rlc.BatchQuery, len(queries))
	for i, q := range queries {
		batch[i] = rlc.BatchQuery{S: q.s, T: q.t, L: q.l}
	}
	fmt.Printf("\nQueryBatch over the same queries:\n")
	for i, res := range ix.QueryBatch(batch, 0) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("%-22s = %v\n", queries[i].name, res.Reachable)
	}
}
