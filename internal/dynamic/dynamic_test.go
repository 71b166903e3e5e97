package dynamic

import (
	"cmp"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
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

func TestInsertMakesQueryTrue(t *testing.T) {
	// Base: 0 -a-> 1, 2 -b-> 3. No (a b)+ path 0 -> 3 until 1 -b-> ...
	g := graph.FromEdges(4, 2, []graph.Edge{
		{Src: 0, Dst: 1, Label: 0},
		{Src: 2, Dst: 3, Label: 1},
	})
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := labelseq.Seq{0, 1}
	ok, err := d.Query(0, 3, l)
	if err != nil || ok {
		t.Fatalf("before insert: %v, %v; want false", ok, err)
	}
	// Inserting 1 -b-> 0 and 0 -a-> 2... simpler: 1 -b-> t' where the
	// path 0 -a-> 1 -b-> 3 becomes (a b)^1.
	if err := d.AddEdge(1, 1, 3); err != nil {
		t.Fatal(err)
	}
	ok, err = d.Query(0, 3, l)
	if err != nil || !ok {
		t.Fatalf("after insert: %v, %v; want true", ok, err)
	}
	if d.JournalLen() != 1 {
		t.Errorf("journal length = %d", d.JournalLen())
	}
}

// TestDeltaEquivalence is the cornerstone: after random insertions, every
// query over the delta graph must agree with online traversal over the
// union graph — and with an index freshly rebuilt over the union.
func TestDeltaEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(600))
	for trial := 0; trial < 15; trial++ {
		n := 4 + r.Intn(8)
		labels := 1 + r.Intn(3)
		g := randomGraph(r, n, labels, 1+r.Intn(2*n))
		k := 1 + r.Intn(2)
		d, err := Build(g, core.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		// Insert a batch of random edges.
		for i := 0; i < 1+r.Intn(6); i++ {
			if err := d.AddEdge(graph.Vertex(r.Intn(n)), graph.Label(r.Intn(labels)), graph.Vertex(r.Intn(n))); err != nil {
				t.Fatal(err)
			}
		}
		union := d.Graph()
		rebuilt, err := core.Build(union, core.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		ev := traversal.NewEvaluator(union)
		for _, l := range core.PrimitiveConstraints(labels, k) {
			for s := graph.Vertex(0); int(s) < n; s++ {
				for tt := graph.Vertex(0); int(tt) < n; tt++ {
					want, err := traversal.EvalRLC(union, s, tt, l)
					if err != nil {
						t.Fatal(err)
					}
					got, err := d.Query(s, tt, l)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("trial %d: delta Query(%d,%d,%v+) = %v, union traversal = %v\nbase %v\njournal %d",
							trial, s, tt, l, got, want, g.Edges(), d.JournalLen())
					}
					fresh, err := rebuilt.Query(s, tt, l)
					if err != nil {
						t.Fatal(err)
					}
					if fresh != want {
						t.Fatalf("trial %d: rebuilt index disagrees with traversal", trial)
					}
				}
			}
		}
		_ = ev
	}
}

// TestRebuildFoldsJournal folds the way the serving layer does — FoldInput,
// a fresh index over the union, and a new DeltaGraph seeded with the
// JournalTail inserted while it was built — and requires the next
// generation to carry exactly that tail and to answer like traversal over
// the final union.
func TestRebuildFoldsJournal(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	g := randomGraph(r, 10, 2, 20)
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	add := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if err := d.AddEdge(graph.Vertex(r.Intn(10)), graph.Label(r.Intn(2)), graph.Vertex(r.Intn(10))); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(5)
	union, folded := d.FoldInput()
	if folded != 5 {
		t.Fatalf("FoldInput covers %d journal edges, want 5", folded)
	}
	add(2) // inserted while the next base is built
	ix, err := core.Build(union, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	final := d.Graph()
	next, err := NewWithJournal(union, ix, d.JournalTail(folded))
	if err != nil {
		t.Fatal(err)
	}
	if next.JournalLen() != 2 {
		t.Fatalf("the next generation carries %d journal edges, want 2", next.JournalLen())
	}
	for _, l := range core.PrimitiveConstraints(2, 2) {
		for s := graph.Vertex(0); int(s) < 10; s++ {
			for tt := graph.Vertex(0); int(tt) < 10; tt++ {
				want, err := traversal.EvalRLC(final, s, tt, l)
				if err != nil {
					t.Fatal(err)
				}
				got, err := next.Query(s, tt, l)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("post-fold Query(%d,%d,%v+) = %v, want %v", s, tt, l, got, want)
				}
			}
		}
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := graph.FromEdges(3, 2, []graph.Edge{{Src: 0, Dst: 1, Label: 0}})
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(0, 0, 99); err == nil {
		t.Error("out-of-range destination must fail")
	}
	if err := d.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative source must fail")
	}
	if err := d.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range label must fail")
	}
	if err := d.RemoveEdge(0, 0, 1); err == nil {
		t.Error("deletions must be rejected")
	}
}

// TestChainThroughMultipleNewEdges: a witness that needs several journal
// edges at once.
func TestChainThroughMultipleNewEdges(t *testing.T) {
	g := graph.FromEdges(6, 1, []graph.Edge{{Src: 0, Dst: 1, Label: 0}})
	d, err := Build(g, core.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []graph.Edge{
		{Src: 1, Dst: 2, Label: 0},
		{Src: 2, Dst: 3, Label: 0},
		{Src: 3, Dst: 4, Label: 0},
	} {
		if err := d.AddEdge(e.Src, e.Label, e.Dst); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := d.Query(0, 4, labelseq.Seq{0})
	if err != nil || !ok {
		t.Fatalf("chain through 3 new edges = %v, %v; want true", ok, err)
	}
	ok, err = d.Query(0, 5, labelseq.Seq{0})
	if err != nil || ok {
		t.Fatalf("unreachable vertex = %v, %v; want false", ok, err)
	}
}

// TestCachedAutomatonSeesInserts: what an epoch caches for a constraint must
// not leak stale answers across insertions.
func TestCachedAutomatonSeesInserts(t *testing.T) {
	g := graph.FromEdges(4, 1, []graph.Edge{{Src: 0, Dst: 1, Label: 0}})
	d, err := Build(g, core.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := labelseq.Seq{0}
	if ok, _ := d.Query(0, 3, l); ok {
		t.Fatal("0 should not reach 3 yet")
	}
	if err := d.AddEdge(1, 0, 3); err != nil {
		t.Fatal(err)
	}
	ok, err := d.Query(0, 3, l)
	if err != nil || !ok {
		t.Fatalf("after insert: %v, %v; want true", ok, err)
	}
}

// TestOverlayQueryAllocsIndependentOfGraphSize pins the overlay's buffer
// reuse: with the constraint's automaton cached and a searcher pooled, a
// QueryRLC that runs the delta search allocates nothing: no per-query mark
// array, and no automaton cache key (Index.ConstraintCode).
func TestOverlayQueryAllocsIndependentOfGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	// An a-chain with its middle edge only in the journal: the base index
	// misses every query across the gap, so the delta search runs.
	const n = 512
	var edges []graph.Edge
	for v := 0; v < n-1; v++ {
		if v != n/2 {
			edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(v + 1), Label: 0})
		}
	}
	d, err := Build(graph.FromEdges(n, 1, edges), core.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(n/2, 0, n/2+1); err != nil {
		t.Fatal(err)
	}
	l := labelseq.Seq{0}
	query := func() {
		// True: the search walks half the chain to the journal edge, where
		// the base index completes the path.
		if ok, err := d.Query(0, n-1, l); err != nil || !ok {
			t.Fatalf("Query(0, %d) = %v, %v; want true", n-1, ok, err)
		}
		// False: the search exhausts the other half.
		if ok, err := d.Query(n/2+1, 0, l); err != nil || ok {
			t.Fatalf("Query(%d, 0) = %v, %v; want false", n/2+1, ok, err)
		}
	}
	query() // warm: automaton cached, searcher pooled, marks grown
	if allocs := testing.AllocsPerRun(50, query); allocs != 0 {
		t.Errorf("warmed overlay queries allocate %v times per run, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= n {
		t.Errorf("warmed overlay queries allocate %d B per run on a %d-vertex graph, want nothing proportional to |V|", perRun, n)
	}
}

// TestOverlayFalseStopsAtTheSmallerSide pins the reason the overlay searches
// from both ends: a false read costs the smaller closure, not the source's.
// The source roots a binary tree of 2,046 reachable vertices whose levels
// alternate l0 and l1, the target has no in-edges, and the one journal edge
// touches neither. The (l0 l1)+ search marks the two seeds and the source's
// two children, then finds the backward side empty.
func TestOverlayFalseStopsAtTheSmallerSide(t *testing.T) {
	const tree = 2047
	var edges []graph.Edge
	for v := 0; 2*v+2 < tree; v++ {
		level := graph.Label(bits.Len(uint(v+1))-1) % 2
		edges = append(edges,
			graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(2*v + 1), Label: level},
			graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(2*v + 2), Label: level})
	}
	const target, a, b = tree, tree + 1, tree + 2
	d, err := Build(graph.FromEdges(tree+3, 2, edges), core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(a, 0, b); err != nil {
		t.Fatal(err)
	}
	l := labelseq.Seq{0, 1}
	nfa, err := automaton.NewPlus(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := traversal.NewEvaluator(d.Graph())
	if ev.ReachableFrom(0, nfa); ev.LastVisited < 1000 {
		t.Fatalf("the source's forward closure spans %d product nodes, want >= 1000", ev.LastVisited)
	}
	if ok, err := d.Query(0, target, l); err != nil || ok {
		t.Fatalf("Query(0, %d) = %v, %v; want false", target, ok, err)
	}
	if searches, visited := d.OverlayStats(); searches != 1 || visited > 4 {
		t.Errorf("the false read ran %d searches marking %d product nodes, want 1 search and at most 4 nodes", searches, visited)
	}
}

// unionEdges lists the edges one of v's union sources yields, as sorted
// (src, label, dst) triples: an edge read from the in-edge source at x leads
// from the neighbour to x.
func unionEdges(v *view, in bool) []graph.Edge {
	sr := newSearcher(v.base.NumVertices())
	sr.v = v
	source := sr.out
	if in {
		source = sr.in
	}
	var es []graph.Edge
	for x := graph.Vertex(0); int(x) < v.base.NumVertices(); x++ {
		nbrs, lbls := source(x)
		for i, y := range nbrs {
			e := graph.Edge{Src: x, Label: lbls[i], Dst: y}
			if in {
				e.Src, e.Dst = y, x
			}
			es = append(es, e)
		}
	}
	sortEdges(es)
	return es
}

func sortEdges(es []graph.Edge) {
	slices.SortFunc(es, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Label, b.Label))
	})
}

// TestUnionSourcesMirror: the overlay's in-edge source is the transpose of
// its out-edge source, and both are exactly base ∪ journal as a multiset
// (duplicates included) — with only an unsealed tail, exactly at a seal
// boundary, after many seals, and in the next generation's overlay seeded
// with the tail a fold carries over.
func TestUnionSourcesMirror(t *testing.T) {
	r := rand.New(rand.NewSource(1501))
	const n, labels = 24, 3
	g := randomGraph(r, n, labels, 60)
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	add := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if err := d.AddEdge(graph.Vertex(r.Intn(n)), graph.Label(r.Intn(labels)), graph.Vertex(r.Intn(n))); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(state string, wantSealed int) {
		t.Helper()
		v := d.cur.Load()
		if v.sealed != wantSealed {
			t.Fatalf("%s: %d of %d journal edges sealed, want %d", state, v.sealed, v.jlen, wantSealed)
		}
		want := append(v.base.Edges(), v.journal[:v.jlen]...)
		sortEdges(want)
		if out := unionEdges(v, false); !slices.Equal(out, want) {
			t.Errorf("%s: union out-edges are not base ∪ journal:\n got %v\nwant %v", state, out, want)
		}
		if in := unionEdges(v, true); !slices.Equal(in, want) {
			t.Errorf("%s: union in-edges are not the transpose of base ∪ journal:\n got %v\nwant %v", state, in, want)
		}
	}

	add(segmentSize - 1)
	check("unsealed tail only", 0)
	add(1)
	check("at the seal boundary", segmentSize)
	add(5*segmentSize + 7)
	check("after many seals", 6*segmentSize)

	// A fold: the next generation's overlay is seeded with the edges
	// inserted after FoldInput, one segment and more, so it seals them.
	union, folded := d.FoldInput()
	add(segmentSize + 8)
	ix, err := core.Build(union, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d, err = NewWithJournal(union, ix, d.JournalTail(folded)); err != nil {
		t.Fatal(err)
	}
	check("after a fold with a carried tail", segmentSize+8)
}
