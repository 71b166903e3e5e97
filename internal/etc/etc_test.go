package etc

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

func randomGraph(r *rand.Rand, n, numLabels, edges int) *graph.Graph {
	b := graph.NewBuilder(n, numLabels)
	for i := 0; i < edges; i++ {
		b.AddEdge(graph.Vertex(r.Intn(n)), graph.Label(r.Intn(numLabels)), graph.Vertex(r.Intn(n)))
	}
	return b.Build()
}

func TestETCOnFig2(t *testing.T) {
	g := graph.Fig2()
	e, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := func(name string) graph.Vertex { id, _ := g.VertexByName(name); return id }
	cases := []struct {
		s, t graph.Vertex
		l    labelseq.Seq
		want bool
	}{
		{v("v3"), v("v6"), labelseq.Seq{1, 0}, true},
		{v("v1"), v("v2"), labelseq.Seq{1, 0}, true},
		{v("v1"), v("v3"), labelseq.Seq{0}, false},
	}
	for _, c := range cases {
		got, err := e.Query(c.s, c.t, c.l)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("ETC(%d, %d, %v+) = %v, want %v", c.s, c.t, c.l, got, c.want)
		}
	}
}

// TestETCAgreesWithTraversalAndIndex: the three implementations must give
// identical answers on every admissible query.
func TestETCAgreesWithTraversalAndIndex(t *testing.T) {
	r := rand.New(rand.NewSource(200))
	for trial := 0; trial < 15; trial++ {
		n := 3 + r.Intn(9)
		labels := 1 + r.Intn(3)
		g := randomGraph(r, n, labels, 2+r.Intn(3*n))
		k := 1 + r.Intn(3)
		e, err := Build(g, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.Build(g, core.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range core.PrimitiveConstraints(labels, k) {
			for s := graph.Vertex(0); int(s) < n; s++ {
				for tt := graph.Vertex(0); int(tt) < n; tt++ {
					want, err := traversal.EvalRLC(g, s, tt, l)
					if err != nil {
						t.Fatal(err)
					}
					gotE, err := e.Query(s, tt, l)
					if err != nil {
						t.Fatal(err)
					}
					gotI, err := ix.Query(s, tt, l)
					if err != nil {
						t.Fatal(err)
					}
					if gotE != want || gotI != want {
						t.Fatalf("trial %d (%d,%d,%v+): etc=%v index=%v traversal=%v\nedges %v",
							trial, s, tt, l, gotE, gotI, want, g.Edges())
					}
				}
			}
		}
	}
}

// TestETCIsUnprunedAlgorithm2: ETC is Algorithm 2's forward half with no
// pruning rule, so it records one (pair, k-MR) per Lin entry of the index
// BuildReference builds with no rule — and, every path having two ends, per
// Lout entry — and answers every query as that index does.
func TestETCIsUnprunedAlgorithm2(t *testing.T) {
	check := func(name string, g *graph.Graph, k int, queries bool) {
		e, err := Build(g, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.BuildReference(g, core.Options{K: k}, core.Pruning{})
		if err != nil {
			t.Fatal(err)
		}
		if st := ix.Stats(); e.NumRecords() != st.InEntries || e.NumRecords() != st.OutEntries {
			t.Fatalf("%s k=%d: ETC records %d, unpruned index %d Lin and %d Lout entries",
				name, k, e.NumRecords(), st.InEntries, st.OutEntries)
		}
		if !queries {
			return
		}
		for _, l := range core.PrimitiveConstraints(g.NumLabels(), k) {
			for s := graph.Vertex(0); int(s) < g.NumVertices(); s++ {
				for d := graph.Vertex(0); int(d) < g.NumVertices(); d++ {
					gotE, err := e.Query(s, d, l)
					if err != nil {
						t.Fatal(err)
					}
					gotI, err := ix.Query(s, d, l)
					if err != nil {
						t.Fatal(err)
					}
					if gotE != gotI {
						t.Fatalf("%s k=%d (%d,%d,%v+): etc=%v unpruned index=%v\nedges %v",
							name, k, s, d, l, gotE, gotI, g.Edges())
					}
				}
			}
		}
	}
	r := rand.New(rand.NewSource(204))
	for trial := 0; trial < 120; trial++ {
		n := 2 + r.Intn(12)
		g := randomGraph(r, n, 1+r.Intn(3), 1+r.Intn(4*n))
		check(fmt.Sprintf("trial %d", trial), g, 1+trial%3, true)
	}
	for _, name := range []string{"WN", "AD", "SO"} {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Generate(300, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(name+"@300", g, 2, false)
	}
}

func TestETCBudgetTime(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	g := randomGraph(r, 200, 3, 1200)
	_, err := Build(g, Options{K: 2, TimeLimit: 1 * time.Nanosecond})
	if err == nil {
		t.Fatal("expected time budget error")
	}
}

func TestETCBudgetEntries(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	g := randomGraph(r, 100, 2, 500)
	_, err := Build(g, Options{K: 2, MaxPairEntries: 1})
	if err == nil {
		t.Fatal("expected entry budget error")
	}
}

func TestETCQueryValidation(t *testing.T) {
	g := graph.Fig2()
	e, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(0, 99, labelseq.Seq{0}); err == nil {
		t.Error("out-of-range vertex must fail")
	}
	if _, err := e.Query(0, 1, labelseq.Seq{0, 0}); err == nil {
		t.Error("non-primitive constraint must fail")
	}
	if _, err := e.Query(0, 1, labelseq.Seq{0, 1, 2}); err == nil {
		t.Error("over-length constraint must fail")
	}
}

func TestETCStats(t *testing.T) {
	g := graph.Fig2()
	e, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.K() != 2 {
		t.Errorf("K = %d", e.K())
	}
	if e.NumPairs() == 0 || e.NumRecords() == 0 || e.SizeBytes() <= 0 {
		t.Errorf("empty stats: pairs=%d records=%d size=%d", e.NumPairs(), e.NumRecords(), e.SizeBytes())
	}
	if e.NumRecords() < int64(e.NumPairs()) {
		t.Error("records must be >= pairs")
	}
}

// TestETCLargerThanIndex demonstrates the paper's Table IV relationship on a
// cyclic graph: the unpruned closure stores at least as many records as the
// condensed RLC index has entries.
func TestETCLargerThanIndex(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	g := randomGraph(r, 40, 2, 160)
	e, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumRecords() < ix.NumEntries()/2 {
		t.Errorf("suspicious: ETC records %d much smaller than index entries %d", e.NumRecords(), ix.NumEntries())
	}
}
