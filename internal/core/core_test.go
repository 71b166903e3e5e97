package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

func mustBuild(t *testing.T, g *graph.Graph, opts Options) *Index {
	t.Helper()
	ix, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

func randomGraph(r *rand.Rand, n, numLabels, edges int) *graph.Graph {
	b := graph.NewBuilder(n, numLabels)
	for i := 0; i < edges; i++ {
		b.AddEdge(graph.Vertex(r.Intn(n)), graph.Label(r.Intn(numLabels)), graph.Vertex(r.Intn(n)))
	}
	return b.Build()
}

// TestFig2PaperQueries replays Example 4 against the index.
func TestFig2PaperQueries(t *testing.T) {
	g := graph.Fig2()
	ix := mustBuild(t, g, Options{K: 2})
	v := func(name string) graph.Vertex {
		id, ok := g.VertexByName(name)
		if !ok {
			t.Fatalf("missing vertex %s", name)
		}
		return id
	}
	const (
		l1 = labelseq.Label(0)
		l2 = labelseq.Label(1)
	)
	cases := []struct {
		s, t graph.Vertex
		l    labelseq.Seq
		want bool
	}{
		{v("v3"), v("v6"), labelseq.Seq{l2, l1}, true}, // Q1
		{v("v1"), v("v2"), labelseq.Seq{l2, l1}, true}, // Q2
		{v("v1"), v("v3"), labelseq.Seq{l1}, false},    // Q3
		{v("v1"), v("v3"), labelseq.Seq{l2}, true},     // v1 -l2-> v3
		{v("v1"), v("v1"), labelseq.Seq{l1}, true},     // cycle v1->v2->v5->v1? (all l1)
		{v("v6"), v("v1"), labelseq.Seq{l1}, false},    // v6 has no out-edges
	}
	for _, c := range cases {
		got, err := ix.Query(c.s, c.t, c.l)
		if err != nil {
			t.Fatalf("Query(%d,%d,%v): %v", c.s, c.t, c.l, err)
		}
		if got != c.want {
			t.Errorf("Query(%s, %s, %v+) = %v, want %v", g.VertexName(c.s), g.VertexName(c.t), c.l, got, c.want)
		}
	}
}

// TestFig2MatchesTableII compares the constructed index with Table II of
// the paper, entry for entry. Our reconstruction of Figure 2 reproduces the
// paper's access order, so the exact entry sets should match.
func TestFig2MatchesTableII(t *testing.T) {
	g := graph.Fig2()
	ix := mustBuild(t, g, Options{K: 2})
	v := func(name string) graph.Vertex { id, _ := g.VertexByName(name); return id }
	l1, l2, l3 := labelseq.Label(0), labelseq.Label(1), labelseq.Label(2)

	type ent struct {
		hub graph.Vertex
		mr  string
	}
	key := func(e EntryView) ent { return ent{e.Hub, e.MR.String()} }
	set := func(views []EntryView) map[ent]bool {
		m := map[ent]bool{}
		for _, e := range views {
			m[key(e)] = true
		}
		return m
	}
	seq := func(ls ...labelseq.Label) string { return labelseq.Seq(ls).String() }

	wantLin := map[graph.Vertex][]ent{
		v("v1"): {},
		v("v2"): {{v("v1"), seq(l1)}, {v("v1"), seq(l2, l1)}},
		v("v3"): {{v("v1"), seq(l2)}, {v("v1"), seq(l1, l2)}},
		v("v4"): {{v("v1"), seq(l2)}},
		v("v5"): {{v("v1"), seq(l1, l2)}, {v("v1"), seq(l1)}, {v("v3"), seq(l1, l2)}, {v("v2"), seq(l2)}},
		v("v6"): {{v("v1"), seq(l2, l1)}, {v("v3"), seq(l1)}, {v("v3"), seq(l2, l3)}, {v("v4"), seq(l3)}},
	}
	wantLout := map[graph.Vertex][]ent{
		v("v1"): {{v("v1"), seq(l2)}, {v("v1"), seq(l1)}, {v("v1"), seq(l2, l1)}},
		v("v2"): {{v("v1"), seq(l2, l1)}, {v("v1"), seq(l1)}},
		v("v3"): {{v("v1"), seq(l2)}, {v("v1"), seq(l2, l1)}, {v("v1"), seq(l1)}, {v("v3"), seq(l1, l2)}},
		v("v4"): {{v("v1"), seq(l1)}, {v("v3"), seq(l1, l2)}},
		v("v5"): {{v("v1"), seq(l1)}, {v("v3"), seq(l1, l2)}},
		v("v6"): {},
	}

	for name, want := range map[string]map[graph.Vertex][]ent{"Lin": wantLin, "Lout": wantLout} {
		for vtx, entries := range want {
			var got map[ent]bool
			if name == "Lin" {
				got = set(ix.LinEntries(vtx))
			} else {
				got = set(ix.LoutEntries(vtx))
			}
			wantSet := map[ent]bool{}
			for _, e := range entries {
				wantSet[e] = true
			}
			for e := range wantSet {
				if !got[e] {
					t.Errorf("%s(%s): missing entry (%s, %s); got %v", name, g.VertexName(vtx), g.VertexName(e.hub), e.mr, got)
				}
			}
			for e := range got {
				if !wantSet[e] {
					t.Errorf("%s(%s): extra entry (%s, %s)", name, g.VertexName(vtx), g.VertexName(e.hub), e.mr)
				}
			}
		}
	}
}

// TestExhaustiveEquivalence is the cornerstone correctness test: on many
// random graphs, the index must agree with online traversal for every
// vertex pair and every primitive constraint up to length k — under every
// pruning configuration. All rules on is Build; each ablation is
// BuildReference with those rules off.
func TestExhaustiveEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	pruneConfigs := []Pruning{
		allRules, // the paper's algorithm
		{PR2: true, PR3: true},
		{PR1: true, PR3: true},
		{PR1: true, PR2: true},
		{},
		{PR1: true, PR2: true, PR3: true, Order: OrderDegreeSum},
		{PR1: true, PR2: true, PR3: true, Order: OrderNatural},
		{PR1: true, PR2: true, PR3: true, Order: OrderReverse},
		{PR1: true, PR2: true, Order: OrderReverse},
	}
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + r.Intn(10)
		labels := 1 + r.Intn(3)
		g := randomGraph(r, n, labels, 1+r.Intn(3*n))
		k := 1 + r.Intn(3)
		for _, cfg := range pruneConfigs {
			ix, err := buildWith(g, Options{K: k}, cfg)
			if err != nil {
				t.Fatalf("trial %d cfg %+v: %v", trial, cfg, err)
			}
			if err := ix.ValidateComplete(); err != nil {
				t.Fatalf("trial %d (n=%d labels=%d k=%d cfg=%+v): %v\nedges: %v",
					trial, n, labels, k, cfg, err, g.Edges())
			}
		}
	}
}

// TestSoundnessOnRandomGraphs verifies every recorded entry is witnessed by
// a real path, under every access order: the pruning rules lean on rank
// order, whichever order assigned the ranks.
func TestSoundnessOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(r, 3+r.Intn(10), 1+r.Intn(3), 2+r.Intn(25))
		k := 1 + r.Intn(3)
		for _, o := range allOrders {
			ix := mustBuildInOrder(t, g, Options{K: k}, o)
			if err := ix.ValidateSound(); err != nil {
				t.Fatalf("trial %d (k=%d order=%d): %v\nedges: %v", trial, k, o, err, g.Edges())
			}
		}
	}
}

// TestCondensedOnRandomGraphs verifies Theorem 2: with all pruning rules
// active the index is condensed, under every access order.
func TestCondensedOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(r, 3+r.Intn(10), 1+r.Intn(3), 2+r.Intn(25))
		k := 1 + r.Intn(3)
		for _, o := range allOrders {
			ix := mustBuildInOrder(t, g, Options{K: k}, o)
			if err := ix.ValidateCondensed(); err != nil {
				t.Fatalf("trial %d (k=%d order=%d): %v\nedges: %v", trial, k, o, err, g.Edges())
			}
		}
	}
}

// TestPruningShrinksIndex checks the ablation direction the paper reports:
// disabling pruning rules can only grow the index.
func TestPruningShrinksIndex(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	grew := false
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 12, 2, 40)
		full := mustBuild(t, g, Options{K: 2})
		none, err := BuildReference(g, Options{K: 2}, Pruning{})
		if err != nil {
			t.Fatal(err)
		}
		if none.NumEntries() < full.NumEntries() {
			t.Fatalf("trial %d: pruning made the index bigger: %d (pruned) vs %d (unpruned)",
				trial, full.NumEntries(), none.NumEntries())
		}
		if none.NumEntries() > full.NumEntries() {
			grew = true
		}
	}
	if !grew {
		t.Error("expected at least one random graph where pruning strictly shrinks the index")
	}
}

func TestQueryValidation(t *testing.T) {
	g := graph.Fig2()
	ix := mustBuild(t, g, Options{K: 2})

	if _, err := ix.Query(0, 1, labelseq.Seq{0, 0}); err == nil {
		t.Error("non-primitive constraint (l0,l0) must be rejected")
	}
	if _, err := ix.Query(0, 1, labelseq.Seq{0, 1, 0}); err == nil {
		t.Error("constraint longer than k must be rejected")
	}
	if _, err := ix.Query(0, 1, labelseq.Seq{}); err == nil {
		t.Error("empty constraint must be rejected")
	}
	if _, err := ix.Query(0, 1, labelseq.Seq{9}); err == nil {
		t.Error("unknown label must be rejected")
	}
	if _, err := ix.Query(-1, 1, labelseq.Seq{0}); err == nil {
		t.Error("negative vertex must be rejected")
	}
	if _, err := ix.Query(0, 99, labelseq.Seq{0}); err == nil {
		t.Error("out-of-range vertex must be rejected")
	}
}

func TestQueryStar(t *testing.T) {
	g := graph.Fig2()
	ix := mustBuild(t, g, Options{K: 2})
	// (v6, v6, l1*) is true by the empty path even though v6 has no
	// outgoing edges.
	ok, err := ix.QueryStar(5, 5, labelseq.Seq{0})
	if err != nil || !ok {
		t.Errorf("QueryStar(v6, v6, l1*) = %v, %v; want true", ok, err)
	}
	// (v6, v1, l1*) is false: no path at all.
	ok, err = ix.QueryStar(5, 0, labelseq.Seq{0})
	if err != nil || ok {
		t.Errorf("QueryStar(v6, v1, l1*) = %v, %v; want false", ok, err)
	}
}

func TestBuildValidation(t *testing.T) {
	g := graph.Fig2()
	if _, err := Build(g, Options{K: MaxK + 1}); err == nil {
		t.Error("k > MaxK must be rejected")
	}
	if _, err := Build(g, Options{K: -1}); err == nil {
		t.Error("negative k must be rejected")
	}
	empty := graph.NewBuilder(0, 0).Build()
	if _, err := Build(empty, Options{}); err == nil {
		t.Error("empty graph must be rejected")
	}
	if _, err := BuildReference(g, Options{}, Pruning{Order: OrderReverse + 1}); err == nil {
		t.Error("an unknown access order must be rejected")
	}
}

func TestEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(3, 0).Build()
	ix := mustBuild(t, g, Options{K: 2})
	if ix.NumEntries() != 0 {
		t.Errorf("edgeless graph should have no entries, got %d", ix.NumEntries())
	}
}

func TestDefaultK(t *testing.T) {
	ix := mustBuild(t, graph.Fig2(), Options{})
	if ix.K() != DefaultK {
		t.Errorf("K = %d, want default %d", ix.K(), DefaultK)
	}
}

func TestSelfLoopIndex(t *testing.T) {
	g := graph.FromEdges(2, 2, []graph.Edge{
		{Src: 0, Dst: 0, Label: 0},
		{Src: 0, Dst: 1, Label: 1},
	})
	ix := mustBuild(t, g, Options{K: 2})
	ok, err := ix.Query(0, 0, labelseq.Seq{0})
	if err != nil || !ok {
		t.Errorf("self loop query = %v, %v; want true", ok, err)
	}
	ok, err = ix.Query(1, 1, labelseq.Seq{0})
	if err != nil || ok {
		t.Errorf("no-loop self query = %v, %v; want false", ok, err)
	}
	if err := ix.ValidateComplete(); err != nil {
		t.Error(err)
	}
}

func TestDeterministicBuild(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	g := randomGraph(r, 20, 3, 60)
	if !bytes.Equal(serialize(t, mustBuild(t, g, Options{K: 2})), serialize(t, mustBuild(t, g, Options{K: 2}))) {
		t.Error("two builds of the same graph serialized differently — build is nondeterministic")
	}
}

func TestStats(t *testing.T) {
	ix := mustBuild(t, graph.Fig2(), Options{K: 2})
	st := ix.Stats()
	if st.Entries != ix.NumEntries() || st.Entries != st.InEntries+st.OutEntries {
		t.Errorf("stats inconsistent: %+v", st)
	}
	if st.Entries == 0 || st.SizeBytes <= 0 || st.DistinctMRs == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	if st.K != 2 || st.Vertices != 6 || st.Edges != 11 {
		t.Errorf("stats shape: %+v", st)
	}
}

func TestAccessOrderExposed(t *testing.T) {
	g := graph.Fig2()
	ix := mustBuild(t, g, Options{K: 2})
	order := ix.AccessOrder()
	want := []string{"v1", "v3", "v2", "v4", "v5", "v6"}
	for i, v := range order {
		if g.VertexName(v) != want[i] {
			t.Fatalf("AccessOrder[%d] = %s, want %s", i, g.VertexName(v), want[i])
		}
	}
}

// TestQueryAgainstBiBFS runs a medium random graph against BiBFS on sampled
// queries — a faster, larger-scale cousin of the exhaustive test.
func TestQueryAgainstBiBFS(t *testing.T) {
	r := rand.New(rand.NewSource(106))
	g := randomGraph(r, 60, 4, 240)
	ix := mustBuild(t, g, Options{K: 2})
	constraints := PrimitiveConstraints(4, 2)
	for i := 0; i < 2000; i++ {
		s := graph.Vertex(r.Intn(60))
		tt := graph.Vertex(r.Intn(60))
		l := constraints[r.Intn(len(constraints))]
		got, err := ix.Query(s, tt, l)
		if err != nil {
			t.Fatal(err)
		}
		want, err := traversal.EvalRLCBi(g, s, tt, l)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Query(%d,%d,%v+) = %v, BiBFS = %v", s, tt, l, got, want)
		}
	}
}

// TestOrderingAblationCorrect builds the Fig. 2 index under every vertex
// order and validates completeness — the order affects only size and speed.
func TestOrderingAblationCorrect(t *testing.T) {
	g := graph.Fig2()
	for _, o := range allOrders {
		ix := mustBuildInOrder(t, g, Options{K: 2}, o)
		if err := ix.ValidateComplete(); err != nil {
			t.Errorf("order %d: %v", o, err)
		}
		if err := ix.ValidateSound(); err != nil {
			t.Errorf("order %d: %v", o, err)
		}
	}
}

// TestInOutOrderNoWorseThanReverse: on a skewed graph the paper's IN-OUT
// strategy should not produce a larger index than the deliberately bad
// reverse order.
func TestInOutOrderNoWorseThanReverse(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	worse := 0
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(r, 30, 2, 120)
		inout := mustBuild(t, g, Options{K: 2})
		rev := mustBuildInOrder(t, g, Options{K: 2}, OrderReverse)
		if inout.NumEntries() > rev.NumEntries() {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("IN-OUT order produced a larger index than reverse order in %d/8 trials", worse)
	}
}
