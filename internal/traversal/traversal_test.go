package traversal

import (
	"context"
	"math/rand"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// bruteRLC answers (s, t, L+) by exhaustive product-graph reachability over
// (vertex, phase) pairs — an independent oracle with a different state
// representation than the NFA-based evaluators.
func bruteRLC(g *graph.Graph, s, t graph.Vertex, l labelseq.Seq) bool {
	n := g.NumVertices()
	m := len(l)
	seen := make([]bool, n*m)
	var stack []int
	push := func(v graph.Vertex, phase int) {
		id := int(v)*m + phase
		if !seen[id] {
			seen[id] = true
			stack = append(stack, id)
		}
	}
	// phase = number of labels consumed mod m; accepting arrival at t has
	// phase 0 after >= 1 edge.
	dsts, lbls := g.OutEdges(s)
	for i := range dsts {
		if lbls[i] == l[0] {
			if m == 1 && dsts[i] == t {
				return true
			}
			push(dsts[i], 1%m)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, phase := graph.Vertex(id/m), id%m
		dsts, lbls := g.OutEdges(v)
		for i := range dsts {
			if lbls[i] != l[phase] {
				continue
			}
			np := (phase + 1) % m
			if np == 0 && dsts[i] == t {
				return true
			}
			push(dsts[i], np)
		}
	}
	return false
}

func randomGraph(r *rand.Rand, n, numLabels, edges int) *graph.Graph {
	b := graph.NewBuilder(n, numLabels)
	for i := 0; i < edges; i++ {
		b.AddEdge(graph.Vertex(r.Intn(n)), graph.Label(r.Intn(numLabels)), graph.Vertex(r.Intn(n)))
	}
	return b.Build()
}

// allPrimitive enumerates the primitive sequences over numLabels labels with
// length up to k.
func allPrimitive(numLabels, k int) []labelseq.Seq {
	var out []labelseq.Seq
	var gen func(prefix labelseq.Seq)
	gen = func(prefix labelseq.Seq) {
		if len(prefix) > 0 && labelseq.IsPrimitive(prefix) {
			out = append(out, prefix.Clone())
		}
		if len(prefix) == k {
			return
		}
		for l := 0; l < numLabels; l++ {
			gen(append(prefix, labelseq.Label(l)))
		}
	}
	gen(labelseq.Seq{})
	return out
}

func TestBFSOnFig1PaperQueries(t *testing.T) {
	g := graph.Fig1()
	v := func(name string) graph.Vertex {
		id, ok := g.VertexByName(name)
		if !ok {
			t.Fatalf("vertex %s missing", name)
		}
		return id
	}
	l := func(name string) graph.Label {
		id, ok := g.LabelByName(name)
		if !ok {
			t.Fatalf("label %s missing", name)
		}
		return id
	}
	e := NewEvaluator(g)

	// Q1(A14, A19, (debits, credits)+) = true (Example 1).
	q1, err := automaton.NewPlus(labelseq.Seq{l("debits"), l("credits")}, g.NumLabels())
	if err != nil {
		t.Fatal(err)
	}
	if !e.BFS(v("A14"), v("A19"), q1) {
		t.Error("Q1(A14, A19, (debits credits)+) should be true")
	}
	if !e.BiBFS(v("A14"), v("A19"), q1) {
		t.Error("BiBFS disagrees on Q1")
	}

	// Q2(P10, P13, (knows, knows, worksFor)+) = false (Example 1).
	q2, err := automaton.NewPlus(labelseq.Seq{l("knows"), l("knows"), l("worksFor")}, g.NumLabels())
	if err != nil {
		t.Fatal(err)
	}
	if e.BFS(v("P10"), v("P13"), q2) {
		t.Error("Q2(P10, P13, (knows knows worksFor)+) should be false")
	}
	if e.BiBFS(v("P10"), v("P13"), q2) {
		t.Error("BiBFS disagrees on Q2")
	}

	// S2(P12, P16) = {(knows), (knows worksFor)} (Section III-C).
	knows, kw := labelseq.Seq{l("knows")}, labelseq.Seq{l("knows"), l("worksFor")}
	for _, c := range []struct {
		l    labelseq.Seq
		want bool
	}{
		{knows, true},
		{kw, true},
		{labelseq.Seq{l("worksFor")}, false},
		{labelseq.Seq{l("worksFor"), l("knows")}, false},
	} {
		nfa, err := automaton.NewPlus(c.l, g.NumLabels())
		if err != nil {
			t.Fatal(err)
		}
		if got := e.BFS(v("P12"), v("P16"), nfa); got != c.want {
			t.Errorf("(P12, P16, %v+) = %v, want %v", c.l, got, c.want)
		}
	}
}

func TestBFSOnFig2PaperQueries(t *testing.T) {
	g := graph.Fig2()
	e := NewEvaluator(g)
	v := func(name string) graph.Vertex {
		id, ok := g.VertexByName(name)
		if !ok {
			t.Fatalf("vertex %s missing", name)
		}
		return id
	}
	// Example 4: Q1(v3, v6, (l2,l1)+) = true, Q2(v1, v2, (l2,l1)+) = true,
	// Q3(v1, v3, (l1)+) = false.
	cases := []struct {
		s, t graph.Vertex
		l    labelseq.Seq
		want bool
	}{
		{v("v3"), v("v6"), labelseq.Seq{1, 0}, true},
		{v("v1"), v("v2"), labelseq.Seq{1, 0}, true},
		{v("v1"), v("v3"), labelseq.Seq{0}, false},
		{v("v1"), v("v3"), labelseq.Seq{1}, true}, // v1 -l2-> v3
	}
	for _, c := range cases {
		nfa, err := automaton.NewPlus(c.l, g.NumLabels())
		if err != nil {
			t.Fatal(err)
		}
		if got := e.BFS(c.s, c.t, nfa); got != c.want {
			t.Errorf("BFS(%d, %d, %v+) = %v, want %v", c.s, c.t, c.l, got, c.want)
		}
		if got := e.BiBFS(c.s, c.t, nfa); got != c.want {
			t.Errorf("BiBFS(%d, %d, %v+) = %v, want %v", c.s, c.t, c.l, got, c.want)
		}
	}
}

// TestEvaluatorsAgreeWithBruteForce is the cornerstone equivalence test:
// BFS, BiBFS, DFS, both closure searches and the phase-based brute oracle
// must agree on every query of every random graph.
func TestEvaluatorsAgreeWithBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	constraints := allPrimitive(3, 3)
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(8)
		g := randomGraph(r, n, 3, n*2)
		e := NewEvaluator(g)
		for _, l := range constraints {
			nfa, err := automaton.NewPlus(l, 3)
			if err != nil {
				t.Fatal(err)
			}
			for s := graph.Vertex(0); int(s) < n; s++ {
				for tt := graph.Vertex(0); int(tt) < n; tt++ {
					want := bruteRLC(g, s, tt, l)
					if got := e.BFS(s, tt, nfa); got != want {
						t.Fatalf("trial %d: BFS(%d,%d,%v+)=%v, brute=%v", trial, s, tt, l, got, want)
					}
					if got := e.BiBFS(s, tt, nfa); got != want {
						t.Fatalf("trial %d: BiBFS(%d,%d,%v+)=%v, brute=%v", trial, s, tt, l, got, want)
					}
					if got := e.DFS(s, tt, nfa); got != want {
						t.Fatalf("trial %d: DFS(%d,%d,%v+)=%v, brute=%v", trial, s, tt, l, got, want)
					}
				}
			}
		}
	}
}

func TestDFSOnFig2(t *testing.T) {
	g := graph.Fig2()
	e := NewEvaluator(g)
	v := func(name string) graph.Vertex { id, _ := g.VertexByName(name); return id }
	nfa, err := automaton.NewPlus(labelseq.Seq{1, 0}, g.NumLabels())
	if err != nil {
		t.Fatal(err)
	}
	if !e.DFS(v("v3"), v("v6"), nfa) {
		t.Error("DFS misses Q1(v3, v6, (l2 l1)+)")
	}
	one, err := automaton.NewPlus(labelseq.Seq{0}, g.NumLabels())
	if err != nil {
		t.Fatal(err)
	}
	if e.DFS(v("v1"), v("v3"), one) {
		t.Error("DFS claims Q3(v1, v3, l1+)")
	}
}

func TestSelfLoopAndSelfQuery(t *testing.T) {
	// v0 has an l0 self loop; (v0, v0, l0+) is true, (v1, v1, l0+) false.
	g := graph.FromEdges(2, 1, []graph.Edge{{Src: 0, Dst: 0, Label: 0}, {Src: 0, Dst: 1, Label: 0}})
	e := NewEvaluator(g)
	nfa, err := automaton.NewPlus(labelseq.Seq{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !e.BFS(0, 0, nfa) || !e.BiBFS(0, 0, nfa) {
		t.Error("(v0, v0, l0+) must be true via the self loop")
	}
	if e.BFS(1, 1, nfa) || e.BiBFS(1, 1, nfa) {
		t.Error("(v1, v1, l0+) must be false: no empty-word acceptance")
	}
}

func TestExtendedQueryQ4Style(t *testing.T) {
	// Chain 0 -a-> 1 -a-> 2 -b-> 3; a+ b+ holds from 0 to 3, a+ alone not.
	g := graph.FromEdges(4, 2, []graph.Edge{
		{Src: 0, Dst: 1, Label: 0}, {Src: 1, Dst: 2, Label: 0}, {Src: 2, Dst: 3, Label: 1},
	})
	e := NewEvaluator(g)
	q4, err := automaton.Compile(automaton.ConcatPlus(labelseq.Seq{0}, labelseq.Seq{1}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !e.BFS(0, 3, q4) || !e.BiBFS(0, 3, q4) {
		t.Error("a+ b+ from 0 to 3 should hold")
	}
	if e.BFS(0, 2, q4) || e.BiBFS(0, 2, q4) {
		t.Error("a+ b+ from 0 to 2 should not hold (no b consumed)")
	}
}

func TestReachableFrom(t *testing.T) {
	g := graph.Fig2()
	e := NewEvaluator(g)
	v := func(name string) graph.Vertex { id, _ := g.VertexByName(name); return id }
	nfa, err := automaton.NewPlus(labelseq.Seq{1, 0}, g.NumLabels()) // (l2,l1)+
	if err != nil {
		t.Fatal(err)
	}
	got := e.ReachableFrom(v("v3"), nfa)
	// From v3 via (l2,l1)+: v3-l2->v4-l1->v1 and further powers.
	want := map[graph.Vertex]bool{}
	for tt := graph.Vertex(0); int(tt) < g.NumVertices(); tt++ {
		if e.BFS(v("v3"), tt, nfa) {
			want[tt] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("ReachableFrom size = %d, want %d (%v)", len(got), len(want), got)
	}
	for _, u := range got {
		if !want[u] {
			t.Errorf("ReachableFrom returned %d which BFS rejects", u)
		}
	}
	// Ascending order contract.
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Error("ReachableFrom not sorted ascending")
		}
	}
}

func TestConvenienceWrappers(t *testing.T) {
	g := graph.Fig2()
	ok, err := EvalRLC(g, 2, 5, labelseq.Seq{1, 0})
	if err != nil || !ok {
		t.Errorf("EvalRLC = %v, %v", ok, err)
	}
	ok, err = EvalRLCBi(g, 2, 5, labelseq.Seq{1, 0})
	if err != nil || !ok {
		t.Errorf("EvalRLCBi = %v, %v", ok, err)
	}
	if _, err := EvalRLC(g, 0, 1, labelseq.Seq{99}); err == nil {
		t.Error("out-of-universe label should error")
	}
}

func TestEvaluatorReuseAcrossQueries(t *testing.T) {
	// Stamped visited arrays must not leak state between queries.
	g := graph.Fig2()
	e := NewEvaluator(g)
	nfa, _ := automaton.NewPlus(labelseq.Seq{0}, g.NumLabels())
	first := e.BFS(0, 1, nfa) // v1 -l1-> v2: true
	for i := 0; i < 100; i++ {
		if got := e.BFS(0, 1, nfa); got != first {
			t.Fatalf("iteration %d: answer flipped to %v", i, got)
		}
	}
	if e.LastVisited == 0 {
		t.Error("LastVisited should be positive after a query")
	}
}

// TestBiBFSWarmAllocatesNothing pins the kernel's buffer reuse: once an
// evaluator has seen a workload, repeating it allocates nothing — no
// per-level frontier slice, no per-call reverse automaton, no mark arrays.
func TestBiBFSWarmAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const n = 400
	g := randomGraph(r, n, 4, n*8)
	e := NewEvaluator(g)
	var nfas []*automaton.NFA
	for _, l := range []labelseq.Seq{{0}, {1, 2}, {3, 0, 1}} {
		nfa, err := automaton.NewPlus(l, 4)
		if err != nil {
			t.Fatal(err)
		}
		nfas = append(nfas, nfa)
	}
	workload := func() {
		for i := 0; i < 64; i++ {
			e.BiBFS(graph.Vertex(i*7%n), graph.Vertex(i*13%n), nfas[i%len(nfas)])
		}
	}
	workload() // warm: marks, frontier buffers, cached reverses
	if allocs := testing.AllocsPerRun(20, workload); allocs != 0 {
		t.Errorf("warmed BiBFS workload allocates %v times per run, want 0", allocs)
	}
}

// TestDriverCancellation: the context-taking drivers — the closure searches
// and BiBFSCtx, here over caller-supplied sources — observe the context once
// per BFS level, including before the first; under a live context BiBFSCtx
// over a graph's own two sources answers like the BFS oracle.
func TestDriverCancellation(t *testing.T) {
	g := graph.Fig2()
	e := NewEvaluator(g)
	nfa, err := automaton.NewPlus(labelseq.Seq{0}, g.NumLabels())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	never := func(graph.Vertex) bool { t.Error("visit ran under a canceled context"); return false }
	if err := e.ReachableFromManyFunc(ctx, []graph.Vertex{0}, nfa, never); err != context.Canceled {
		t.Errorf("ReachableFromManyFunc: err = %v, want context.Canceled", err)
	}
	if err := e.ReachableIntoManyFunc(ctx, []graph.Vertex{0}, nfa, never); err != context.Canceled {
		t.Errorf("ReachableIntoManyFunc: err = %v, want context.Canceled", err)
	}
	over := NewEvaluatorOver(g.NumVertices(), g.OutEdges, g.InEdges)
	if _, err := over.BiBFSCtx(ctx, 0, 1, nfa); err != context.Canceled {
		t.Errorf("BiBFSCtx: err = %v, want context.Canceled", err)
	}
	for s := graph.Vertex(0); int(s) < g.NumVertices(); s++ {
		for d := graph.Vertex(0); int(d) < g.NumVertices(); d++ {
			got, err := over.BiBFSCtx(context.Background(), s, d, nfa)
			if want := e.BFS(s, d, nfa); err != nil || got != want {
				t.Errorf("BiBFSCtx(%d, %d) = %v, %v; BFS says %v", s, d, got, err, want)
			}
		}
	}
}
