package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// TestConcurrentQueries exercises the documented contract that queries are
// safe for concurrent use (run with -race to make this meaningful).
func TestConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(701))
	g := randomGraph(r, 30, 3, 120)
	ix := mustBuild(t, g, Options{K: 2})
	constraints := PrimitiveConstraints(3, 2)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				s := graph.Vertex(rr.Intn(30))
				tt := graph.Vertex(rr.Intn(30))
				l := constraints[rr.Intn(len(constraints))]
				if _, err := ix.Query(s, tt, l); err != nil {
					t.Errorf("concurrent query failed: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestQueryStarProperty: QueryStar == (s == t) || Query, everywhere.
func TestQueryStarProperty(t *testing.T) {
	r := rand.New(rand.NewSource(702))
	g := randomGraph(r, 10, 2, 30)
	ix := mustBuild(t, g, Options{K: 2})
	for _, l := range PrimitiveConstraints(2, 2) {
		for s := graph.Vertex(0); int(s) < 10; s++ {
			for tt := graph.Vertex(0); int(tt) < 10; tt++ {
				plus, err := ix.Query(s, tt, l)
				if err != nil {
					t.Fatal(err)
				}
				star, err := ix.QueryStar(s, tt, l)
				if err != nil {
					t.Fatal(err)
				}
				want := s == tt || plus
				if star != want {
					t.Fatalf("QueryStar(%d,%d,%v) = %v, want %v", s, tt, l, star, want)
				}
			}
		}
	}
}

// TestMaxKBoundary builds with the largest supported k on a tiny cyclic
// graph and validates completeness.
func TestMaxKBoundary(t *testing.T) {
	g := graph.FromEdges(3, 2, []graph.Edge{
		{Src: 0, Dst: 1, Label: 0},
		{Src: 1, Dst: 2, Label: 1},
		{Src: 2, Dst: 0, Label: 0},
	})
	ix := mustBuild(t, g, Options{K: MaxK})
	if err := ix.ValidateComplete(); err != nil {
		t.Fatal(err)
	}
	// The 3-cycle's label sequence (l0 l1 l0) is primitive: its rotations
	// are the k-MRs of the cycle from each starting vertex.
	ok, err := ix.Query(0, 0, labelseq.Seq{0, 1, 0})
	if err != nil || !ok {
		t.Errorf("cycle query = %v, %v; want true", ok, err)
	}
}
