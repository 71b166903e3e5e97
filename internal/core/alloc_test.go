package core

import (
	"math/rand"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// The tests in this file hold the query path to no allocation end to end: a
// valid query through the public API costs zero heap allocations, whichever
// callee a regression sneaks in through (or an escape-analysis change in a
// new toolchain).

func allocTestIndex(t *testing.T) *Index {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	g := randomGraph(r, 64, 3, 512)
	return mustBuild(t, g, Options{K: 3})
}

func TestQueryAllocFree(t *testing.T) {
	ix := allocTestIndex(t)
	seqs := []labelseq.Seq{{0}, {1, 2}, {2, 0, 1}}
	for _, l := range seqs {
		l := l
		if _, err := ix.Query(3, 4, l); err != nil {
			t.Fatalf("Query warm-up: %v", err)
		}
		avg := testing.AllocsPerRun(200, func() {
			if _, err := ix.Query(3, 4, l); err != nil {
				panic(err)
			}
		})
		if avg != 0 {
			t.Errorf("Query(|L|=%d): %.1f allocs/op, want 0", len(l), avg)
		}
	}
}

func TestQueryBatchIntoAllocFree(t *testing.T) {
	ix := allocTestIndex(t)
	r := rand.New(rand.NewSource(11))
	queries := make([]BatchQuery, 256)
	for i := range queries {
		queries[i] = BatchQuery{
			S: graph.Vertex(r.Intn(64)),
			T: graph.Vertex(r.Intn(64)),
			L: labelseq.Seq{labelseq.Label(r.Intn(3))},
		}
	}
	// An adequately sized reused buffer and a single worker is the
	// documented allocation-free configuration of QueryBatchInto.
	results := make([]BatchResult, 0, len(queries))
	results = ix.QueryBatchInto(queries, 1, results)
	avg := testing.AllocsPerRun(50, func() {
		results = ix.QueryBatchInto(queries, 1, results)
	})
	if avg != 0 {
		t.Errorf("QueryBatchInto(reused buffer, 1 worker): %.1f allocs/op, want 0", avg)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
	}
}
