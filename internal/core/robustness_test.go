package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// loadHostile feeds data to the v1 importer and holds it to the contract for
// outside input: a clean error, or an index whose every decoded entry is
// inside the graph's universe — never a panic.
func loadHostile(t *testing.T, data []byte, g *graph.Graph) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("Load panicked: %v", p)
		}
	}()
	loaded, err := Load(bytes.NewReader(data), g)
	if err != nil {
		return // clean rejection
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, list := range [][]EntryView{loaded.LinEntries(graph.Vertex(v)), loaded.LoutEntries(graph.Vertex(v))} {
			for _, e := range list {
				if e.Hub < 0 || int(e.Hub) >= g.NumVertices() || len(e.MR) == 0 || len(e.MR) > loaded.K() {
					t.Fatalf("accepted index leaked invalid entry %+v", e)
				}
			}
		}
	}
}

// TestLoadSurvivesCorruption flips random bytes of a v1 index file and
// holds Load to loadHostile's contract.
func TestLoadSurvivesCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(700))
	pristine, g := v1Fixture(t, "er12_k2")
	for trial := 0; trial < 500; trial++ {
		corrupt := bytes.Clone(pristine)
		// Flip 1-4 random bytes.
		for i := 0; i < 1+r.Intn(4); i++ {
			corrupt[r.Intn(len(corrupt))] ^= byte(1 + r.Intn(255))
		}
		loadHostile(t, corrupt, g)
	}
}

// TestLoadSurvivesTruncation truncates a v1 index file at every length and
// asserts clean failures.
func TestLoadSurvivesTruncation(t *testing.T) {
	data, g := v1Fixture(t, "fig2_k2")
	for cut := 0; cut < len(data); cut++ {
		if _, err := Load(bytes.NewReader(data[:cut]), g); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
}

// FuzzLoad mutates v1 index bytes arbitrarily. The first byte of the input
// picks which fixture's graph the rest is loaded against.
func FuzzLoad(f *testing.F) {
	fig2, fig2Graph := v1Fixture(f, "fig2_k2")
	er12, er12Graph := v1Fixture(f, "er12_k2")
	f.Add(append([]byte{0}, fig2...))
	f.Add(append([]byte{1}, er12...))
	f.Add(append([]byte{1}, er12[:len(er12)/2]...))
	f.Add([]byte{0, 'R', 'L', 'C', 'X'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fig2Graph
		if len(data) > 0 {
			if data[0]&1 == 1 {
				g = er12Graph
			}
			data = data[1:]
		}
		loadHostile(t, data, g)
	})
}

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
